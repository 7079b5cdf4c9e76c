"""The squash benchmark: three workloads, end-to-end and per-layer
metrics (see ``README.md``)."""

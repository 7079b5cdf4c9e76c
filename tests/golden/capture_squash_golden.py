"""Regenerate a squash golden file from the current pipeline.

Run only after an *intentional* change to squash output::

    PYTHONPATH=src python tests/golden/capture_squash_golden.py
    PYTHONPATH=src python tests/golden/capture_squash_golden.py \\
        --variant ctx1
    PYTHONPATH=src python tests/golden/capture_squash_golden.py --configs

The digests pin the emitted image bytes, footprint, baseline size,
modelled timing-run cycles, and program output for every benchmark ×
θ cell at a fixed scale; ``tests/test_squash_golden.py`` asserts the
pipeline still reproduces them exactly.  Each codec variant gets its
own golden file (``squash_golden.json`` for baseline,
``squash_golden_<variant>.json`` otherwise), so the ``baseline``
digests stay byte-for-byte those of the pre-CodecModel pipeline.

``--configs`` captures ``squash_golden_configs.json`` instead: the
grid above pins only default configurations and only image words, so
this one pins, for three programs at a small scale, every restore
scheme × buffer strategy × region strategy at three θ, plus rows
without packing and without unswitching.  Each cell holds the SHA-256
of both files :meth:`SquashResult.file_bytes` returns (image and
descriptor JSON) and the ``RewriteInfo`` counters;
``tests/test_squash_golden_configs.py`` checks them.
"""

import argparse
import hashlib
import json
import pathlib
import time

from repro.analysis.experiments import map_theta, squash_benchmark
from repro.core.descriptor import BufferStrategy, RestoreStubScheme
from repro.core.metrics import baseline_code_words
from repro.core.pipeline import SquashConfig, squash_program
from repro.workloads.mediabench import MEDIABENCH, mediabench_program

SCALE = 0.2
THETAS = (0.0, 1e-5, 5e-5, 1.0)

#: The configuration grid of ``squash_golden_configs.json``.
CONFIG_PROGRAMS = ("adpcm", "gsm", "jpeg_enc")
CONFIG_SCALE = 0.15
CONFIG_THETAS = (0.0, 1e-3, 1.0)
CONFIG_PATH = pathlib.Path(__file__).parent / "squash_golden_configs.json"


def golden_path(variant: str) -> pathlib.Path:
    suffix = "" if variant in ("", "baseline") else f"_{variant}"
    return pathlib.Path(__file__).parent / f"squash_golden{suffix}.json"


def image_digest(image) -> str:
    h = hashlib.sha256()
    h.update(image.base.to_bytes(8, "little"))
    h.update(image.entry_pc.to_bytes(8, "little"))
    for seg in image.segments:
        h.update(f"{seg.name}:{seg.start}:{seg.size};".encode())
    for w in image.memory:
        h.update((w & 0xFFFFFFFF).to_bytes(4, "little"))
    return h.hexdigest()


def config_grid():
    """``(cell name, program, SquashConfig)`` of every configuration
    cell.  The codec is pinned, so ``REPRO_CODEC_VARIANT`` does not
    move the grid."""
    for name in CONFIG_PROGRAMS:
        for theta in CONFIG_THETAS:
            for scheme in RestoreStubScheme:
                for strategy in BufferStrategy:
                    for region in ("dfs", "whole_function"):
                        yield (
                            f"{name}@{theta}/{scheme.value}/"
                            f"{strategy.value}/{region}",
                            name,
                            SquashConfig(
                                theta=theta,
                                restore_scheme=scheme,
                                strategy=strategy,
                                region_strategy=region,
                                codec_variant="baseline",
                            ),
                        )
            for flag in ("pack", "unswitch"):
                yield (
                    f"{name}@{theta}/no-{flag}",
                    name,
                    SquashConfig(
                        theta=theta, codec_variant="baseline", **{flag: False}
                    ),
                )


def config_cell(name: str, config: SquashConfig) -> dict:
    """What one configuration cell pins."""
    bench = mediabench_program(name, scale=CONFIG_SCALE)
    result = squash_program(
        bench.squeezed, bench.profile, config,
        baseline_words=baseline_code_words(bench.layout, bench.squeezed),
    )
    image, meta = result.file_bytes()
    info = result.info
    return {
        "image_sha256": hashlib.sha256(image).hexdigest(),
        "descriptor_sha256": hashlib.sha256(meta).hexdigest(),
        "xcall_sites": info.xcall_sites,
        "safe_calls": info.safe_calls,
        "intra_region_calls": info.intra_region_calls,
        "entry_stub_count": info.entry_stub_count,
        "compressed_original_instrs": info.compressed_original_instrs,
        "safe_functions": len(info.safe_functions),
    }


def capture_configs(out: pathlib.Path) -> None:
    golden = {
        "scale": CONFIG_SCALE,
        "cells": {
            cell: config_cell(name, config)
            for cell, name, config in config_grid()
        },
    }
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("wrote", len(golden["cells"]), "cells to", out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--variant", default="",
        help="codec variant to capture (default: baseline)",
    )
    parser.add_argument(
        "--out", default="",
        help="output path (default: derived from the variant)",
    )
    parser.add_argument(
        "--configs", action="store_true",
        help="capture the configuration grid instead",
    )
    args = parser.parse_args()
    if args.configs:
        capture_configs(pathlib.Path(args.out) if args.out else CONFIG_PATH)
        return
    golden = {"scale": SCALE, "thetas": list(THETAS), "cells": {}}
    if args.variant:
        golden["codec_variant"] = args.variant
    t0 = time.time()
    for name in MEDIABENCH:
        bench = mediabench_program(name, scale=SCALE)
        for theta_paper in THETAS:
            config = SquashConfig(
                theta=map_theta(theta_paper),
                codec_variant=args.variant,
            )
            result = squash_benchmark(name, SCALE, config)
            run, _ = result.run(bench.timing_input, max_steps=500_000_000)
            golden["cells"][f"{name}@{theta_paper}"] = {
                "image_sha256": image_digest(result.image),
                "footprint_total": result.footprint.total,
                "baseline_words": result.baseline_words,
                "cycles": run.cycles,
                "output_sha256": hashlib.sha256(
                    b"".join(
                        (w & 0xFFFFFFFF).to_bytes(4, "little")
                        for w in run.output
                    )
                ).hexdigest(),
                "exit_code": run.exit_code,
            }
        print(name, round(time.time() - t0, 1))
    out = (
        pathlib.Path(args.out) if args.out else golden_path(args.variant)
    )
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("wrote", len(golden["cells"]), "cells to", out)


if __name__ == "__main__":
    main()

"""The paper's contribution: profile-guided code compression (*squash*).

Pipeline (mirrors Sections 2-6 of the paper):

1. :mod:`repro.core.coldcode` -- identify cold basic blocks from an
   execution profile and a threshold θ (Section 5).
2. :mod:`repro.core.unswitch` -- eliminate indirect jumps through jump
   tables in cold code, or exclude them (Section 6.2).
3. :mod:`repro.core.regions` -- partition compressible blocks into
   regions bounded by the runtime buffer size, then pack small regions
   (Section 4).
4. :mod:`repro.core.buffersafe` -- find functions whose calls need no
   restore stubs (Section 6.1).
5. :mod:`repro.core.plan` / :mod:`repro.core.classify` /
   :mod:`repro.core.layout` / :mod:`repro.core.emit` -- the rewriter
   stages producing the squashed image: stubs, function offset table,
   decompressor, compressed code, stub area, runtime buffer
   (Section 2); :func:`repro.core.pipeline.squash_program` runs them
   in order.
6. :mod:`repro.core.runtime` -- the runtime decompressor / CreateStub
   service with reference-counted restore stubs (Sections 2.2-2.3).
"""

from repro.core.costmodel import CostModel
from repro.core.coldcode import identify_cold_blocks, cold_code_stats
from repro.core.regions import Region, form_regions, pack_regions
from repro.core.buffersafe import buffer_safe_functions
from repro.core.unswitch import unswitch_cold_tables
from repro.core.pipeline import SquashConfig, SquashResult
from repro.core.pipeline import squash_program as squash
from repro.core.runtime import BufferStrategy, SquashRuntime, RuntimeStats
from repro.core.metrics import Footprint

__all__ = [
    "CostModel",
    "identify_cold_blocks",
    "cold_code_stats",
    "Region",
    "form_regions",
    "pack_regions",
    "buffer_safe_functions",
    "unswitch_cold_tables",
    "squash",
    "SquashConfig",
    "SquashResult",
    "BufferStrategy",
    "SquashRuntime",
    "RuntimeStats",
    "Footprint",
]

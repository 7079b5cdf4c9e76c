"""Basic-block execution profiling (the paper's Section 5 input).

A profile maps each basic block to its execution frequency.  The
*weight* of a block is its instruction count times its frequency -- the
block's contribution to the total number of instructions executed --
and ``tot_instr_ct`` is the total dynamic instruction count, exactly as
defined in Section 5 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.program.image import LoadedImage
from repro.program.program import Program
from repro.vm.machine import Machine, RunResult


@dataclass
class Profile:
    """Execution profile of one program on one input."""

    #: Execution count per basic-block label (0 for never-executed).
    counts: dict[str, int]
    #: Instruction count per block label.
    sizes: dict[str, int]
    #: Total dynamic instructions executed (paper's ``tot_instr_ct``).
    tot_instr_ct: int
    #: The run that produced the profile.
    run: RunResult | None = field(default=None, repr=False)

    def freq(self, label: str) -> int:
        """Execution frequency of block *label*."""
        return self.counts.get(label, 0)

    def weight(self, label: str) -> int:
        """Block weight: instruction count times execution frequency."""
        return self.counts.get(label, 0) * self.sizes.get(label, 0)

    def scaled(self, factor: float) -> "Profile":
        """A copy with all counts scaled (for sensitivity experiments)."""
        counts = {k: int(v * factor) for k, v in self.counts.items()}
        tot = sum(counts[k] * self.sizes[k] for k in counts)
        return Profile(counts=counts, sizes=dict(self.sizes), tot_instr_ct=tot)


def collect_profile(
    program: Program,
    image: LoadedImage,
    input_words: list[int] | tuple[int, ...],
    max_steps: int = 100_000_000,
) -> Profile:
    """Run *image* on *input_words* and collect a basic-block profile.

    ``program`` supplies the block inventory so that never-executed
    blocks appear with count zero (they are the θ=0 cold set).
    """
    machine = Machine(image, input_words=input_words, count_blocks=True)
    result = machine.run(max_steps=max_steps)

    sizes = {
        block.label: block.size for _, block in program.all_blocks()
    }
    counts = {label: 0 for label in sizes}
    for addr, count in result.block_counts.items():
        label = image.block_heads.get(addr)
        if label is not None and label in counts:
            counts[label] += count

    tot = sum(counts[label] * sizes[label] for label in counts)
    return Profile(counts=counts, sizes=sizes, tot_instr_ct=tot, run=result)

#!/usr/bin/env python
"""Quickstart: squash a small hand-written program.

Builds a program from assembly (a hot loop plus a cold error-report
function), profiles it, compresses the cold code, and runs both the
original and the squashed image on an input that exercises the cold
path -- demonstrating on-demand decompression into the runtime buffer.

Run:  python examples/quickstart.py
"""

from repro import Machine, SquashConfig, collect_profile, squash
from repro.isa import assemble
from repro.program import BasicBlock, Function, Program
from repro.program.layout import layout


def build_program() -> Program:
    """Sum input words; a negative word triggers the cold path."""
    program = Program("quickstart")

    main = Function("main")
    main.add_block(
        BasicBlock(
            "main.entry",
            instrs=assemble("addi r31, 0, r9"),  # r9 = running sum
            fallthrough="main.loop",
        )
    )
    main.add_block(
        BasicBlock(
            "main.loop",
            instrs=assemble("sys read\nbeq r1, 0"),
            fallthrough="main.check",
            branch_target="main.done",
        )
    )
    main.add_block(
        BasicBlock(
            "main.check",
            instrs=assemble("blt r0, 0"),  # negative? cold path
            fallthrough="main.add",
            branch_target="main.cold",
        )
    )
    main.add_block(
        BasicBlock(
            "main.add",
            instrs=assemble("add r9, r0, r9"),
            fallthrough="main.loop",
        )
    )
    cold = BasicBlock(
        "main.cold",
        instrs=assemble("add r0, r31, r16\nbsr r26, 0"),
        fallthrough="main.loop",
    )
    cold.call_targets[1] = "report"
    main.add_block(cold)
    main.add_block(
        BasicBlock(
            "main.done",
            instrs=assemble(
                "add r9, r31, r16\nsys write\naddi r31, 0, r16\nsys exit"
            ),
        )
    )
    program.add_function(main)

    # A cold "error report": big enough that compressing it beats the
    # cost of its entry stub.
    report = Function("report")
    report.add_block(
        BasicBlock(
            "report.entry",
            instrs=assemble(
                """
                muli r16, 3, r1
                xori r1, 0xAA, r1
                addi r1, 17, r2
                slli r2, 2, r2
                subi r2, 5, r3
                andi r3, 0xFF, r3
                ori r3, 0x10, r4
                add r4, r1, r4
                blbs r4, 1
                """
            ),
            fallthrough="report.even",
            branch_target="report.odd",
        )
    )
    report.add_block(
        BasicBlock(
            "report.even",
            instrs=assemble(
                "muli r4, 7, r16\naddi r16, 1, r16\nsys write\nret"
            ),
        )
    )
    report.add_block(
        BasicBlock(
            "report.odd",
            instrs=assemble(
                "muli r4, 13, r16\nsubi r16, 2, r16\nsys write\nret"
            ),
        )
    )
    program.add_function(report)
    program.validate()
    return program


def main() -> None:
    program = build_program()
    base = layout(program)
    print(f"program: {program.code_size} instructions")

    # Profile on an input that never takes the cold path.
    profile_input = [3, 5, 7, 11, 13] * 10
    profile = collect_profile(program, base.image, profile_input)
    cold = sorted(label for label, count in profile.counts.items() if not count)
    print(f"never executed during profiling: {cold}")

    # Compress everything the profile says is cold (θ = 0).
    result = squash(program, profile, SquashConfig(theta=0.0))
    print(
        f"footprint: {result.baseline_words} -> {result.footprint.total} "
        f"words ({result.reduction:+.1%}; negative is expected for a "
        f"program this tiny: the decompressor and buffer are fixed costs)"
    )
    print(f"regions: {len(result.info.regions)}; "
          f"entry stubs: {result.info.entry_stub_count}")

    # Run both images on an input WITH cold items.
    timing_input = [3, -4, 5, -6, 7]
    original = Machine(base.image, input_words=timing_input).run()
    squashed_run, runtime = result.run(timing_input)

    print(f"original output:  {original.output}")
    print(f"squashed output:  {squashed_run.output}")
    assert squashed_run.output == original.output
    print(
        f"decompressions: {runtime.stats.decompressions} "
        f"(+{runtime.stats.buffer_hits} buffer hits), "
        f"bits decoded: {runtime.stats.bits_decoded}, "
        f"cycles: {original.cycles} -> {squashed_run.cycles} "
        f"(the one decompression dominates a {original.cycles}-cycle run)"
    )
    print("outputs identical -- decompression-on-demand works.")


if __name__ == "__main__":
    main()

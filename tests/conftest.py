"""Shared fixtures: a handcrafted mini-program and small workloads."""

from __future__ import annotations

import sys

import pytest

from repro.isa import assemble
from repro.program import BasicBlock, Function, Program
from repro.program.layout import layout
from repro.vm import machine as machine_mod
from repro.vm.machine import Machine
from repro.vm.profiler import collect_profile
from repro.workloads.inputs import profiling_input, timing_input
from repro.workloads.generator import build_workload
from repro.workloads.spec import WorkloadSpec


def build_mini_program() -> Program:
    """A small program with a hot loop, cold call chains (f -> g, f
    recursive), used across the core tests.

    Input protocol: reads words until EOF; item == 0 takes the cold
    path (call f), anything else the hot path; writes a checksum.
    """
    program = Program("mini")
    main = Function("main")
    main.add_block(
        BasicBlock(
            "main.entry",
            instrs=assemble("addi r31, 0, r9"),
            fallthrough="main.loop",
        )
    )
    main.add_block(
        BasicBlock(
            "main.loop",
            instrs=assemble("sys read\nbeq r1, 0"),
            fallthrough="main.chk",
            branch_target="main.done",
        )
    )
    main.add_block(
        BasicBlock(
            "main.chk",
            instrs=assemble("beq r0, 0"),
            fallthrough="main.hot",
            branch_target="main.coldcall",
        )
    )
    main.add_block(
        BasicBlock(
            "main.hot",
            instrs=assemble(
                "add r9, r0, r9\nmuli r9, 3, r9\nxori r9, 7, r9"
            ),
            fallthrough="main.loop",
        )
    )
    cold = BasicBlock(
        "main.coldcall",
        instrs=assemble("addi r31, 17, r16\nbsr r26, 0\nadd r9, r0, r9"),
        fallthrough="main.loop",
    )
    cold.call_targets[1] = "f"
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

    f = Function("f")
    f_entry = BasicBlock(
        "f.entry",
        instrs=assemble(
            "subi r30, 4, r30\nstw r26, 0(r30)\nstw r16, 1(r30)\n"
            "bsr r26, 0\naddi r0, 1, r0"
        ),
        fallthrough="f.mid",
    )
    f_entry.call_targets[3] = "g"
    f.add_block(f_entry)
    f.add_block(
        BasicBlock(
            "f.mid",
            instrs=assemble(
                "ldw r16, 1(r30)\nsubi r16, 1, r16\nble r16, 0"
            ),
            fallthrough="f.rec",
            branch_target="f.out",
        )
    )
    f_rec = BasicBlock(
        "f.rec",
        instrs=assemble("bsr r26, 0\nadd r0, r0, r0"),
        fallthrough="f.out",
    )
    f_rec.call_targets[0] = "f"
    f.add_block(f_rec)
    f_out = BasicBlock(
        "f.out",
        instrs=assemble(
            "bsr r26, 0\nldw r26, 0(r30)\naddi r30, 4, r30\nret"
        ),
    )
    f_out.call_targets[0] = "g"
    f.add_block(f_out)
    program.add_function(f)

    g = Function("g")
    g.add_block(
        BasicBlock(
            "g.entry",
            instrs=assemble("muli r16, 7, r0\naddi r0, 3, r0\nret"),
        )
    )
    program.add_function(g)
    program.validate()
    return program


#: Inputs for the mini program: profile never takes the cold path,
#: timing does.
MINI_PROFILE_INPUT = [3, 5, 9, 2, 8] * 20
MINI_TIMING_INPUT = [3, 0, 5, 0, 0, 9, 4] * 10


@pytest.fixture(scope="session")
def mini_program() -> Program:
    return build_mini_program()


@pytest.fixture(scope="session")
def mini_layout(mini_program):
    return layout(mini_program)


@pytest.fixture(scope="session")
def mini_profile(mini_program, mini_layout):
    return collect_profile(
        mini_program, mini_layout.image, MINI_PROFILE_INPUT
    )


@pytest.fixture(scope="session")
def mini_baseline(mini_layout):
    machine = Machine(mini_layout.image, input_words=MINI_TIMING_INPUT)
    return machine.run(max_steps=2_000_000)


def small_spec(**overrides) -> WorkloadSpec:
    """A small, fast workload spec for tests."""
    defaults = dict(
        name="small",
        seed=7,
        target_input_size=4200,
        target_squeeze_size=2800,
        profile_items=1200,
        timing_items=1800,
        n_ladder=6,
        ladder_counts=(1, 2, 3, 5, 8, 13),
        ladder_size_fracs=(0.02, 0.02, 0.02, 0.02, 0.02, 0.02),
        ladder_boost=(4, 5, 3, 2, 2, 1.5),
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


@pytest.fixture(scope="session")
def small_workload():
    return build_workload(small_spec())


@pytest.fixture(scope="session")
def small_inputs(small_workload):
    return profiling_input(small_workload), timing_input(small_workload)


#: ``TRANSLATE_AFTER`` under which the VM translates nothing: the step
#: interpreter alone, the oracle translated runs are checked against.
STEP_ONLY = sys.maxsize


@pytest.fixture(scope="module")
def vm_translate_after(request):
    """Pin ``repro.vm.machine.TRANSLATE_AFTER`` for a module's tests to
    its ``VM_TRANSLATE_AFTER`` attribute, or to :data:`STEP_ONLY`.

    The VM unit-test modules use it as is; ``test_vm_translate``
    collects their tests again with every block translated on its
    first entry.
    """
    value = getattr(request.module, "VM_TRANSLATE_AFTER", STEP_ONLY)
    saved = machine_mod.TRANSLATE_AFTER
    machine_mod.TRANSLATE_AFTER = value
    yield value
    machine_mod.TRANSLATE_AFTER = saved

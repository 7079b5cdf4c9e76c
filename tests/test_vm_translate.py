"""Block translation against the step interpreter.

Each case runs three times: with ``TRANSLATE_AFTER`` so large that
nothing is translated (the step interpreter alone, the oracle), at 1
(every block translated on its first entry) and at the default.  The
three runs must agree on the result, the runtime statistics, the fault
and the runtime trace stream, and leave the same registers and memory.
"""

from __future__ import annotations

import functools
import random
from contextlib import contextmanager
from dataclasses import asdict, replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.api as api
from repro.core.descriptor import BufferStrategy
from repro.errors import WatchdogExpired
from repro.core.runtime import SquashRuntime, clear_region_decode_cache
from repro.faultinject.inject import FAULT_KINDS, apply_fault, plan_fault
from repro.isa import assemble
from repro.isa.encoding import encode
from repro.obs import trace as trace_mod
from repro.program.image import LoadedImage
from repro.program.layout import layout
from repro.squeeze import squeeze
from repro.vm import machine as machine_mod
from repro.vm.machine import FuelExhausted, Machine
from repro.vm.profiler import collect_profile
from repro.workloads import build_workload, mediabench_spec
from repro.workloads.inputs import profiling_input, timing_input

from tests.conftest import STEP_ONLY

# The step interpreter's own unit tests, collected again here so that
# they run with every block translated on its first entry.
from tests.test_vm_branches import (  # noqa: F401
    TestAddressFormation as _AddressFormation,
    TestIndirectControl,
    test_branch_against_model,
    test_branch_property,
)
from tests.test_vm_machine import (  # noqa: F401
    TestAlu,
    TestControl,
    TestMemory,
    TestServices,
    TestSyscalls,
    test_alu_matches_python_model,
)
from tests.test_vm_watchdog import TestCycleNeutrality, TestWatchdog  # noqa: F401

VM_TRANSLATE_AFTER = 1
pytestmark = pytest.mark.usefixtures("vm_translate_after")


@given(st.integers(0, (1 << 15) - 1), st.integers(0, 100))
def test_lda_ldah_compose(lo, hi):
    # Hypothesis will not run one @given method from two test instances,
    # so this case is collected again as a function.
    _AddressFormation.test_lda_ldah_compose.hypothesis.inner_test(
        _AddressFormation(), lo, hi
    )

#: The oracle first, then every block translated, then the default.
MODES = (STEP_ONLY, 1, machine_mod.TRANSLATE_AFTER)

#: Step budget of a whole run: the generated programs take 40k-120k
#: steps, and one damaged so that it loops stops here.
RUN_STEPS = 200_000

#: Damage kinds: the fault injector's image faults, plus one flipped
#: bit in any word of the image (code included).
DAMAGE = tuple(kind for kind in FAULT_KINDS if kind != "cache-poison") + (
    "bitflip-any",
)


@contextmanager
def _translate_after(value: int):
    saved = machine_mod.TRANSLATE_AFTER
    machine_mod.TRANSLATE_AFTER = value
    try:
        yield
    finally:
        machine_mod.TRANSLATE_AFTER = saved


@contextmanager
def _private_tracer():
    """An armed tracer of its own, so runs are compared event by event."""
    saved = trace_mod._TRACER
    tracer = trace_mod.Tracer(capacity=1 << 20, enabled=True)
    trace_mod._TRACER = tracer
    try:
        yield tracer
    finally:
        trace_mod._TRACER = saved


def _observe(make_machine, max_steps: int) -> dict:
    """Run a fresh machine and record everything the modes must agree
    on.  A run stopped by its step budget is resumed once, with the
    budget of a whole run."""
    clear_region_decode_cache()
    with _private_tracer() as tracer:
        machine, runtime = make_machine()
        seen: dict = {}
        for leg, budget in (("run", max_steps), ("resumed", RUN_STEPS)):
            try:
                seen[leg] = machine.run(max_steps=budget)
                break
            except Exception as exc:
                seen[leg] = (
                    type(exc), getattr(exc, "pc", None), str(exc),
                    machine.steps, machine.cycles,
                )
                if not isinstance(exc, FuelExhausted):
                    break
        events = [
            (event.name, event.phase, event.ts, event.args)
            for event in tracer.events("runtime")
        ]
    seen.update(
        events=events,
        stats=asdict(runtime.stats) if runtime is not None else None,
        state=(machine.pc, machine.steps, machine.cycles, machine.in_pos,
               list(machine.regs), list(machine.mem),
               dict(machine.block_counts)),
    )
    return seen


def _assert_modes_agree(make_machine, max_steps: int = RUN_STEPS) -> dict:
    outcomes = []
    for mode in MODES:
        with _translate_after(mode):
            outcomes.append(_observe(make_machine, max_steps))
    oracle = outcomes[0]
    for mode, outcome in zip(MODES[1:], outcomes[1:]):
        for key in oracle:
            assert outcome.get(key) == oracle[key], (mode, key)
        assert outcome.keys() == oracle.keys(), mode
    return oracle


@functools.lru_cache(maxsize=None)
def _prepared(name: str, seed: int, scale: float):
    """A re-seeded workload program, squeezed, laid out and profiled."""
    workload = build_workload(replace(mediabench_spec(name, scale), seed=seed))
    squeezed, _ = squeeze(workload.program)
    laid = layout(squeezed)
    profile = collect_profile(squeezed, laid.image, profiling_input(workload))
    return squeezed, laid.image, profile, tuple(timing_input(workload))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(("adpcm", "gsm")),
    seed=st.integers(0, 2),
    scale=st.sampled_from((0.02, 0.03)),
    squashed=st.booleans(),
    theta=st.floats(0.0, 1.0),
    strategy=st.sampled_from(list(BufferStrategy)),
    damage=st.none() | st.sampled_from(DAMAGE),
    damage_seed=st.integers(0, 1 << 16),
    count_blocks=st.booleans(),
    max_steps=st.integers(1, RUN_STEPS),
    watchdog=st.just(0) | st.integers(1, RUN_STEPS),
    hot_seed=st.none() | st.integers(0, 1 << 16),
)
def test_translated_runs_match_the_step_interpreter(
    name, seed, scale, squashed, theta, strategy, damage, damage_seed,
    count_blocks, max_steps, watchdog, hot_seed,
):
    program, image, profile, inputs = _prepared(name, seed, scale)
    descriptor = None
    if squashed:
        result = api.squash(
            program, profile,
            api.SquashConfig(theta=theta, strategy=strategy),
        )
        image, descriptor = result.image, result.descriptor
    rng = random.Random(damage_seed)
    if damage == "bitflip-any":
        memory = list(image.memory)
        memory[rng.randrange(len(memory))] ^= 1 << rng.randrange(32)
        image = replace(image, memory=memory)
    elif damage is not None and descriptor is not None and descriptor.regions:
        spec = plan_fault(damage, descriptor, rng, image)
        image, descriptor = apply_fault(image, descriptor, spec)
    hot_heads = (
        None if hot_seed is None
        else _drawn_hot_heads(random.Random(hot_seed), image, descriptor)
    )

    def make_machine():
        runtime = SquashRuntime(descriptor) if descriptor is not None else None
        machine = Machine(
            image, input_words=inputs, count_blocks=count_blocks,
            services=runtime.services() if runtime is not None else None,
            watchdog=watchdog, hot_heads=hot_heads,
        )
        return machine, runtime

    _assert_modes_agree(make_machine, max_steps)


def _drawn_hot_heads(rng, image, descriptor) -> dict[int, int]:
    """Seeded entry counts, below and above ``TRANSLATE_AFTER``, at
    block heads, at any image word (most in the middle of a block), in
    the runtime buffer and at trap addresses, and outside memory."""
    heads = sorted(image.block_heads)
    pcs = rng.sample(heads, min(20, len(heads)))
    pcs += [rng.randrange(image.base, image.end) for _ in range(20)]
    pcs += [-1, image.end + (1 << 20)]
    if descriptor is not None:
        buffer = descriptor.buffer_base
        pcs += [rng.randrange(buffer, buffer + descriptor.buffer_words)
                for _ in range(10)]
        pcs += [descriptor.decomp_base + rng.randrange(32) for _ in range(2)]
    return {pc: rng.randrange(100) for pc in pcs}


def test_trap_addresses_are_never_counted_or_translated(monkeypatch):
    program, _, profile, inputs = _prepared("adpcm", 0, 0.03)
    result = api.squash(program, profile, api.SquashConfig(theta=1.0))
    translated = []
    translate = Machine._translate

    def spy(self, entry):
        translated.append(entry)
        return translate(self, entry)

    monkeypatch.setattr(Machine, "_translate", spy)
    machines = []

    def make_machine():
        runtime = SquashRuntime(result.descriptor)
        machine = Machine(
            result.image, input_words=inputs, services=runtime.services()
        )
        machines.append(machine)
        return machine, runtime

    oracle = _assert_modes_agree(make_machine)
    assert oracle["stats"]["decompressions"] > 0
    traps = set(machines[0].services)
    assert translated and not traps & set(translated)
    for machine in machines:
        assert machine._heat
        assert not traps & {pc for pc, _ in machine._heat}


def _raw_image(
    listing: str, base: int = 0x100, heads: tuple[int, ...] = ()
) -> LoadedImage:
    """*listing* assembled at *base*; *heads* are offsets from *base*
    of the block heads ``count_blocks`` counts."""
    words = [encode(instr) for instr in assemble(listing)]
    return LoadedImage(
        memory=words, base=base, entry_pc=base,
        block_heads={base + offset: f"h{offset}" for offset in heads},
    )


def _load_constant(reg: int, value: int) -> str:
    """ldah/lda source that sets *reg* to the 32-bit *value*."""
    lo = value & 0xFFFF
    lo -= 0x10000 if lo & 0x8000 else 0
    hi = ((value - lo) >> 16) & 0xFFFF
    hi -= 0x10000 if hi & 0x8000 else 0
    return f"ldah r{reg}, {hi}(r31)\nlda r{reg}, {lo}(r{reg})"


def test_guest_code_rewritten_in_the_heap():
    """The guest stores an instruction into the heap, calls it,
    overwrites it and calls it again, 40 times: heap code is never
    translated, so each call runs the word just stored."""
    heap = 0x100 + 18  # the listing below is 18 words long
    addi0 = encode(assemble("addi r31, 0, r16")[0])
    step = encode(assemble("addi r31, 1, r16")[0]) - addi0
    listing = "\n".join([
        _load_constant(3, heap),
        _load_constant(4, encode(assemble("ret")[0])),
        _load_constant(5, addi0),
        _load_constant(6, step),
        "addi r31, 40, r7",
        "loop:",
        "mul r7, r6, r1",
        "add r1, r5, r1",
        "stw r1, 0(r3)",
        "stw r4, 1(r3)",
        "jsr r26, (r3)",
        "sys write",
        "subi r7, 1, r7",
        "bne r7, loop",
        "halt",
    ])
    image = _raw_image(listing)
    assert image.end == heap
    oracle = _assert_modes_agree(
        lambda: (Machine(image, watchdog=0), None)
    )
    assert oracle["run"].output == list(range(40, 0, -1))


def test_service_rewrites_a_translated_loop():
    """A service swaps one instruction of a hot loop body between two
    encodings every third call: the translation is dropped on each
    write and reinstated when the old words come back."""
    listing = "\n".join([
        "addi r31, 90, r7",
        "loop:",
        "addi r9, 1, r9",
        "bsr r26, svc",
        "subi r7, 1, r7",
        "bne r7, loop",
        "add r9, r31, r16",
        "sys write",
        "halt",
        "svc:",
        "ret",
    ])
    image = _raw_image(listing)
    body = image.entry_pc + 1
    variants = [encode(assemble(f"addi r9, {k}, r9")[0]) for k in (1, 5)]

    def make_machine():
        calls = []

        def service(machine):
            calls.append(machine.pc)
            machine.write_words(body, [variants[len(calls) // 3 % 2]])
            machine.pc = machine.regs[26]

        svc = image.end - 1  # the final ret
        return Machine(image, services={svc: service}, watchdog=0), None

    oracle = _assert_modes_agree(make_machine)
    # 90 iterations; the increment is 1 for 3 of every 6, else 5.
    assert oracle["run"].output == [sum(
        1 if (i // 3) % 2 == 0 else 5 for i in range(90)
    )]


@pytest.mark.parametrize("access", [
    "ldw r4, 0(r3)\naddi r3, 1, r3",  # walks off the top of memory
    "stw r2, 0(r3)\nsubi r3, 1, r3",  # walks down into the text
], ids=["load", "store"])
def test_fault_mid_block_after_register_writes(access):
    """A block leaves before the faulting access with the registers it
    already wrote stored back; the step body then raises the fault."""
    end = 0x100 + 9  # the listing below is 9 words long
    start = end + 16384 - 50 if access.startswith("ldw") else end + 50
    image = _raw_image("\n".join([
        _load_constant(3, start),
        "addi r31, 1, r2",
        "loop:",
        "addi r2, 3, r2",
        "addi r9, 1, r9",
        access,
        "br loop",
        "halt",
    ]))
    assert image.end == end
    oracle = _assert_modes_agree(
        lambda: (Machine(image, heap_words=8192, stack_words=8192), None)
    )
    assert oracle["run"][0] is machine_mod.MemoryFault


def test_stack_depth_peaks_in_translated_code():
    """The deepest recursion comes last, long after its blocks are
    translated, and still sets ``max_stack_depth``."""
    image = _raw_image("\n".join([
        "addi r31, 40, r11",
        "loop:",
        "addi r10, 1, r10",
        "add r10, r31, r16",
        "bsr r26, rec",
        "add r0, r31, r16",
        "sys write",
        "subi r11, 1, r11",
        "bne r11, loop",
        "halt",
        "rec:",  # r0 = n + (n - 1) + ... + 1, two stack words a level
        "subi r30, 2, r30",
        "stw r26, 0(r30)",
        "stw r16, 1(r30)",
        "addi r31, 0, r0",
        "beq r16, out",
        "subi r16, 1, r16",
        "bsr r26, rec",
        "ldw r16, 1(r30)",
        "add r0, r16, r0",
        "out:",
        "ldw r26, 0(r30)",
        "addi r30, 2, r30",
        "ret",
    ]))
    oracle = _assert_modes_agree(lambda: (Machine(image), None))
    assert oracle["run"].output == [n * (n + 1) // 2 for n in range(1, 41)]
    assert oracle["run"].max_stack_depth == 2 * 41


def test_write_words_faults_like_word_stores(mini_layout):
    """A bulk service store that runs off the end of memory stores the
    words before the fault, as one store per word would."""
    machine = Machine(mini_layout.image)
    end = len(machine.mem)
    with pytest.raises(machine_mod.MemoryFault, match=f"{end:#x}"):
        machine.write_words(end - 2, [7, 8, 9])
    assert machine.mem[end - 2 :] == [7, 8]
    with pytest.raises(machine_mod.MemoryFault, match="-0x1"):
        machine.write_words(-1, [5])


#: A loop of four instructions whose last branches back to its first:
#: translated, it runs as a loop inside one superblock function.
_SELF_LOOP = "\n".join([
    "addi r31, 250, r7",
    "loop:",
    "addi r9, 3, r9",
    "xor r9, r7, r10",
    "subi r7, 1, r7",
    "bne r7, loop",
    "add r10, r31, r16",
    "sys write",
    "halt",
])


@pytest.mark.parametrize("iteration", [5, 120])
@pytest.mark.parametrize("budget", ["steps", "watchdog"])
def test_budget_trips_inside_an_in_function_loop(budget, iteration):
    """A step budget, or a watchdog, that ends two instructions into the
    *iteration*-th pass of an in-function loop: the loop starts no pass
    that does not fit, and the step body trips at the exact step.  A
    run stopped by its step budget resumes mid-pass."""
    image = _raw_image(_SELF_LOOP)
    limit = 1 + 4 * (iteration - 1) + 2
    if budget == "steps":
        oracle = _assert_modes_agree(
            lambda: (Machine(image, watchdog=0), None), limit
        )
        assert oracle["run"][0] is FuelExhausted
        assert oracle["resumed"].output == [(3 * 250) ^ 1]
    else:
        oracle = _assert_modes_agree(
            lambda: (Machine(image, watchdog=limit), None)
        )
        assert oracle["run"][0] is WatchdogExpired
    assert oracle["run"][3] == limit


def test_deopt_on_a_later_pass_after_registers_written_later():
    """The load walks off the top of memory on the 41st pass of an
    in-function loop.  r3 and r5 are written after the load, so when
    the step body raises the fault they must hold the 40th pass's
    values, and r2, written before it, the 41st's."""
    end = 0x100 + 7  # the listing below is 7 words long
    image = _raw_image("\n".join([
        _load_constant(3, end + 16384 - 40),
        "loop:",
        "addi r2, 3, r2",
        "ldw r4, 0(r3)",
        "addi r3, 1, r3",
        "add r4, r2, r5",
        "br loop",
    ]))
    assert image.end == end
    oracle = _assert_modes_agree(lambda: (Machine(image), None))
    assert oracle["run"][0] is machine_mod.MemoryFault
    regs = oracle["state"][4]
    assert (regs[2], regs[3], regs[5]) == (3 * 41, end + 16384, 3 * 40)


def test_side_exit_from_the_middle_of_a_superblock():
    """Every fourth pass leaves the loop's superblock by a branch in its
    middle, runs a block of its own and re-enters at the loop head."""
    image = _raw_image("\n".join([
        "addi r31, 100, r7",
        "loop:",
        "addi r9, 1, r9",
        "andi r9, 3, r1",
        "beq r1, rare",
        "addi r10, 2, r10",
        "subi r7, 1, r7",
        "bne r7, loop",
        "br out",
        "rare:",
        "addi r11, 1, r11",
        "subi r7, 1, r7",
        "bne r7, loop",
        "out:",
        "add r10, r31, r16",
        "sys write",
        "add r11, r31, r16",
        "sys write",
        "halt",
    ]))
    oracle = _assert_modes_agree(lambda: (Machine(image), None))
    assert oracle["run"].output == [2 * 75, 25]


@pytest.mark.parametrize("max_steps", [RUN_STEPS, 333])
def test_block_heads_inside_a_superblock_and_on_a_self_loop(max_steps):
    """``count_blocks`` counts the heads a superblock spans (the
    self-loop's entry on every pass, a fall-through and a branch target
    in its middle) where the step body counts them, also across a run
    stopped mid-pass and resumed."""
    image = _raw_image("\n".join([
        "addi r31, 200, r7",    # head 0
        "loop:",                # head 1
        "addi r9, 1, r9",
        "andi r9, 3, r1",
        "bne r1, skip",
        "addi r10, 1, r10",     # head 4
        "skip:",                # head 5
        "subi r7, 1, r7",
        "bne r7, loop",
        "add r10, r31, r16",    # head 8
        "sys write",
        "halt",
    ]), heads=(0, 1, 4, 5, 8))
    oracle = _assert_modes_agree(
        lambda: (Machine(image, count_blocks=True), None), max_steps
    )
    assert oracle["state"][-1] == {
        0x100: 1, 0x101: 200, 0x104: 50, 0x105: 200, 0x108: 1,
    }


def test_loop_body_reads_and_writes():
    """An in-function loop that reads its input word by word and writes
    each square, until ``sys read`` finds the input exhausted."""
    inputs = [value * 7919 - (1 << 31) for value in range(120)]
    image = _raw_image("\n".join([
        "loop:",
        "sys read",
        "beq r1, out",
        "mul r0, r0, r16",
        "sys write",
        "br loop",
        "out:",
        "halt",
    ]))
    oracle = _assert_modes_agree(
        lambda: (Machine(image, input_words=inputs), None)
    )
    assert oracle["run"].output == [
        (value & 0xFFFFFFFF) ** 2 & 0xFFFFFFFF for value in inputs
    ]


def test_kept_translation_reinstated_among_two_at_one_pc():
    """A service cycles the first two words of a hot loop through three
    variants.  Two of them share their first word, so two translations
    are kept under one (entry pc, first word); each refill must
    reinstate the one whose every word is back in memory."""
    listing = "\n".join([
        "addi r31, 120, r7",
        "loop:",
        "addi r9, 1, r9",
        "addi r10, 1, r10",
        "bsr r26, svc",
        "subi r7, 1, r7",
        "bne r7, loop",
        "add r9, r31, r16",
        "sys write",
        "add r10, r31, r16",
        "sys write",
        "halt",
        "svc:",
        "ret",
    ])
    image = _raw_image(listing)
    body = image.entry_pc + 1
    variants = [
        [encode(assemble(f"addi r{reg}, {k}, r{reg}")[0])
         for reg, k in ((9, k9), (10, k10))]
        for k9, k10 in ((1, 1), (1, 2), (5, 1))
    ]
    assert variants[0][0] == variants[1][0] != variants[2][0]

    def make_machine():
        calls = []

        def service(machine):
            calls.append(machine.pc)
            machine.write_words(body, variants[len(calls) // 2 % 3])
            machine.pc = machine.regs[26]

        svc = image.end - 1  # the final ret
        return Machine(image, services={svc: service}, watchdog=0), None

    oracle = _assert_modes_agree(make_machine)
    # Pass i runs the variant the (i - 1)-th service call wrote.
    steps = [variants[(i // 2) % 3] for i in range(120)]
    assert oracle["run"].output == [
        sum(1 + 4 * (v is variants[2]) for v in steps),
        sum(1 + (v is variants[1]) for v in steps),
    ]


# -- linked traces ------------------------------------------------------------


def test_linked_exit_into_code_a_service_rewrites():
    """The loop's superblock follows ``br far`` into a block elsewhere
    in the text, whose first word a service swaps between two encodings
    every third call: the trace spans that word, so each swap retires
    it and the next pass runs the word just written."""
    listing = "\n".join([
        "addi r31, 90, r7",
        "loop:",
        "addi r9, 1, r9",
        "br far",
        "back:",
        "bsr r26, svc",
        "subi r7, 1, r7",
        "bne r7, loop",
        "add r10, r31, r16",
        "sys write",
        "halt",
        "far:",
        "addi r10, 1, r10",
        "br back",
        "svc:",
        "ret",
    ])
    image = _raw_image(listing)
    far = image.end - 3
    variants = [encode(assemble(f"addi r10, {k}, r10")[0]) for k in (1, 5)]
    assert image.memory[far - image.base] == variants[0]

    def make_machine():
        calls = []

        def service(machine):
            calls.append(machine.pc)
            machine.write_words(far, [variants[len(calls) // 3 % 2]])
            machine.pc = machine.regs[26]

        svc = image.end - 1  # the final ret
        return Machine(image, services={svc: service}, watchdog=0), None

    oracle = _assert_modes_agree(make_machine)
    # Pass i runs the variant the (i - 1)-th service call wrote.
    assert oracle["run"].output == [
        sum(1 if i == 0 or (i // 3) % 2 == 0 else 5 for i in range(90))
    ]


#: A loop whose superblock links a call and its return: eight
#: instructions a pass, three of them in the callee.
_LINKED_LOOP = "\n".join([
    "addi r31, 250, r7",
    "loop:",
    "addi r9, 3, r9",
    "bsr r26, f",
    "xor r9, r7, r10",
    "subi r7, 1, r7",
    "bne r7, loop",
    "add r10, r31, r16",
    "sys write",
    "halt",
    "f:",
    "addi r11, 1, r11",
    "addi r12, 2, r12",
    "ret",
])


@pytest.mark.parametrize("iteration", [5, 120])
@pytest.mark.parametrize("budget", ["steps", "watchdog"])
def test_budget_trips_inside_the_linked_part_of_a_trace(budget, iteration):
    """A step budget, or a watchdog, that ends inside the callee on the
    *iteration*-th pass of a loop whose superblock runs the call and
    its return: no pass starts that does not fit, and the step body
    trips at the exact step."""
    image = _raw_image(_LINKED_LOOP)
    limit = 1 + 8 * (iteration - 1) + 3
    if budget == "steps":
        oracle = _assert_modes_agree(
            lambda: (Machine(image, watchdog=0), None), limit
        )
        assert oracle["run"][0] is FuelExhausted
        assert oracle["resumed"].output == [(3 * 250) ^ 1]
    else:
        oracle = _assert_modes_agree(
            lambda: (Machine(image, watchdog=limit), None)
        )
        assert oracle["run"][0] is WatchdogExpired
    assert oracle["run"][3] == limit


def test_ret_guard_misses_when_the_callee_moves_its_return():
    """Every fourth call, the callee adds 1 to its link register and so
    returns past the ``addi r10`` after the call: the trace's guard on
    the predicted return address must leave for the real one."""
    image = _raw_image("\n".join([
        "addi r31, 100, r7",
        "loop:",
        "addi r9, 1, r9",
        "bsr r26, f",
        "addi r10, 1, r10",
        "subi r7, 1, r7",
        "bne r7, loop",
        "add r10, r31, r16",
        "sys write",
        "halt",
        "f:",
        "andi r9, 3, r1",
        "cmpeqi r1, 0, r1",
        "add r26, r1, r26",
        "ret",
    ]))
    oracle = _assert_modes_agree(lambda: (Machine(image), None))
    assert oracle["run"].output == [75]


def test_deopt_in_the_linked_part_after_registers_written_before_the_link():
    """The load after ``br body`` walks off the top of memory on the
    41st pass.  The step body must resume at the load's own pc, with
    r2 (written before the link) holding the 41st pass's value and r3
    and r5 (written after the load) the 40th's."""
    end = 0x100 + 9  # the listing below is 9 words long
    image = _raw_image("\n".join([
        _load_constant(3, end + 16384 - 40),
        "loop:",
        "addi r2, 3, r2",
        "br body",
        "halt",
        "body:",
        "ldw r4, 0(r3)",
        "addi r3, 1, r3",
        "add r4, r2, r5",
        "br loop",
    ]))
    assert image.end == end
    oracle = _assert_modes_agree(lambda: (Machine(image), None))
    assert oracle["run"][0] is machine_mod.MemoryFault
    assert oracle["run"][1] == end - 4
    regs = oracle["state"][4]
    assert (regs[2], regs[3], regs[5]) == (3 * 41, end + 16384, 3 * 40)


# -- keyed refills ------------------------------------------------------------


def _filled_translations_hold(machine) -> int:
    """Assert that every live translation inside a keyed fill's range
    spans words equal to memory (the compare a keyed refill skips), and
    return how many there are."""
    live = 0
    for base, (_, words) in machine._fills.items():
        for block in machine._at[base : base + len(words)]:
            if block is not None:
                live += 1
                for start, run in block[3]:
                    assert machine.mem[start : start + len(run)] == run
    return live


#: A loop that asks the service at ``svc`` for buffer fill r1 (0, 1, 2
#: or 3 by pass), then calls the buffer's first word through r3.
_BUFFER_LOOP = "\n".join([
    "addi r31, 120, r7",
    "loop:",
    "andi r7, 3, r1",
    "bsr r26, svc",
    "jsr r26, (r3)",
    "subi r7, 1, r7",
    "bne r7, loop",
    "add r9, r31, r16",
    "sys write",
    "add r10, r31, r16",
    "sys write",
    "add r11, r31, r16",
    "sys write",
    "halt",
    "svc:",
    "ret",
])

#: The two regions a buffer fill writes: A is entered at its first or
#: second word, B at its first.
_REGIONS = {
    "A": ["addi r9, 1, r9", "addi r10, 1, r10", "ret"],
    "B": ["addi r11, 1, r11", "ret"],
}


def _buffer_machine(plan, jump_in_fill: bool, reinstated: list):
    """A machine running :data:`_BUFFER_LOOP` over a four-word buffer
    after the text.  Fill r1 is ``plan[r1]``: (region, entry slot) for
    a keyed fill of the entry jump and the region, or ("poke", value)
    for a plain store of *value* into the buffer's third word.  With
    *jump_in_fill* the entry jump is part of the keyed fill (so the
    words under one key change with the entry slot); otherwise it is a
    store of its own before it, as the squash runtime does."""
    text = [encode(instr) for instr in assemble(_BUFFER_LOOP)]
    buffer = 0x100 + len(text)
    image = LoadedImage(
        memory=text + [0] * 4, base=0x100, entry_pc=0x100, block_heads={},
    )
    bodies = {
        name: [encode(instr) for instr in assemble("\n".join(lines))]
        for name, lines in _REGIONS.items()
    }

    def service(machine):
        name, arg = plan[machine.regs[1]]
        if name == "poke":
            machine.write_word(buffer + 2, arg)
        else:
            jump = encode(assemble(f"br {arg - 1}")[0])
            if jump_in_fill:
                machine.write_words(buffer, [jump, *bodies[name]], key=name)
            else:
                machine.write_word(buffer, jump)
                machine.write_words(buffer + 1, bodies[name], key=name)
            reinstated.append(_filled_translations_hold(machine))
        machine.regs[3] = buffer
        machine.pc = machine.regs[26]

    svc = buffer - 1  # the ret after the halt
    return Machine(image, services={svc: service}, watchdog=0), None


@pytest.mark.parametrize("jump_in_fill", [True, False])
def test_region_refilled_at_a_new_entry_slot(jump_in_fill):
    """Region A is refilled entered at its second word after two fills
    entered at its first, and B's fills come between: the entry jump
    changes while A's body does not.  A keyed refill whose words differ
    from its stash's must not bring back a translation of the old
    entry jump; one with the same words brings its translations back."""
    plan = [("A", 1), ("A", 1), ("A", 2), ("B", 1)]
    reinstated: list[int] = []
    oracle = _assert_modes_agree(
        lambda: _buffer_machine(plan, jump_in_fill, reinstated)
    )
    # r7 runs 120..1; fill r7 & 3.
    fills = [plan[n & 3] for n in range(120, 0, -1)]
    assert oracle["run"].output == [
        sum(f == ("A", 1) for f in fills),
        sum(f[0] == "A" for f in fills),
        sum(f[0] == "B" for f in fills),
    ]
    assert sum(reinstated) > 0


def test_store_into_a_filled_region_then_its_refill():
    """A plain store rewrites the middle of region A while it is in the
    buffer (as the fault harness writes words); the next passes run the
    rewritten word.  Then A is filled again: that refill must not
    reinstate, or leave running, a translation of the rewritten words."""
    poked = encode(assemble("addi r10, 7, r10")[0])
    plan = [("A", 1), ("poke", poked), ("A", 1), ("B", 1)]
    reinstated: list[int] = []
    oracle = _assert_modes_agree(
        lambda: _buffer_machine(plan, False, reinstated)
    )
    # After a poke the buffer still holds A, rewritten; the pass runs it.
    assert oracle["run"].output == [90, 30 * 2 + 30 * 7, 30]
    assert sum(reinstated) > 0


@pytest.mark.parametrize("strategy", list(BufferStrategy))
def test_regions_alternating_in_the_buffer(strategy):
    """A squashed program at θ = 1, where the runtime fills the buffer
    with one region after another thousands of times: every translation
    a keyed refill brings back spans words equal to memory, and the
    run agrees with the step interpreter."""
    program, _, profile, inputs = _prepared("adpcm", 0, 0.03)
    result = api.squash(
        program, profile, api.SquashConfig(theta=1.0, strategy=strategy)
    )
    reinstated: list[int] = []

    def make_machine():
        runtime = SquashRuntime(result.descriptor)

        def checked(handler):
            def service(machine):
                handler(machine)
                reinstated.append(_filled_translations_hold(machine))
            return service

        services = {
            addr: checked(handler)
            for addr, handler in runtime.services().items()
        }
        machine = Machine(result.image, input_words=inputs, services=services)
        return machine, runtime

    oracle = _assert_modes_agree(make_machine)
    if strategy is BufferStrategy.DECOMPRESS_ONCE:
        # Each region is filled once into an area of its own; later
        # entries rewrite only its entry jump.
        assert oracle["stats"]["buffer_hits"] > 100
    else:
        assert oracle["stats"]["decompressions"] > 100
        assert sum(reinstated) > 0


# -- where entries are counted ------------------------------------------------

#: The default threshold (the module fixture pins 1 for these tests).
DEFAULT_AFTER = MODES[2]

#: A loop entered by falling through from its first instruction: the
#: head at 0x101 is arrived at once from ``addi``, then by its back edge.
_FALL_INTO_LOOP = "\n".join([
    "addi r31, 100, r7",
    "loop:",
    "subi r7, 1, r7",
    "bne r7, loop",
    "halt",
])


def _stopped(machine: Machine, max_steps: int) -> Machine:
    """*machine* after a run stopped by a budget of *max_steps*."""
    with pytest.raises(FuelExhausted):
        machine.run(max_steps=max_steps)
    return machine


def test_loop_head_counts_only_arrivals_by_its_back_edge():
    """The head is reached once by a straight-line step, which counts
    no entry, so it translates on its ``TRANSLATE_AFTER``-th arrival by
    the back edge, after 1 + 2 * ``TRANSLATE_AFTER`` steps."""
    image = _raw_image(_FALL_INTO_LOOP)
    head = image.base + 1
    with _translate_after(DEFAULT_AFTER):
        before = _stopped(Machine(image), 2 * DEFAULT_AFTER - 1)
        after = _stopped(Machine(image), 2 * DEFAULT_AFTER + 1)
    assert before._at[head] is None
    assert before._heat == {(head, image.memory[1]): DEFAULT_AFTER - 1}
    assert after._at[head] is not None


def test_seeded_head_is_live_after_its_first_entry():
    """A head seeded with a hot profile count translates on its first
    arrival by a transfer; unseeded, it is still cold there."""
    image = _raw_image("br loop\n" + _FALL_INTO_LOOP.split("\n", 1)[1])
    head = image.base + 1
    with _translate_after(DEFAULT_AFTER):
        seeded = _stopped(Machine(image, hot_heads={head: 500}), 1)
        plain = _stopped(Machine(image), 1)
    assert seeded._at[head] is not None
    assert plain._at[head] is None


def test_seeded_heads_translate_nothing_in_step_only_mode(monkeypatch):
    """With translation off, a machine seeded at every word runs the
    step interpreter alone, and its run equals an unseeded one's."""
    translated = []
    monkeypatch.setattr(
        Machine, "_translate", lambda self, entry: translated.append(entry)
    )
    image = _raw_image(_FALL_INTO_LOOP)
    hot = {pc: 10**6 for pc in range(image.base, image.end)}
    with _translate_after(STEP_ONLY):
        seeded = _observe(lambda: (Machine(image, hot_heads=hot), None),
                          RUN_STEPS)
        plain = _observe(lambda: (Machine(image), None), RUN_STEPS)
    assert translated == []
    assert seeded == plain


def test_straight_line_step_chains_into_a_live_translation(monkeypatch):
    """After the inner loop's head is translated, each later outer pass
    arrives at ``outer`` by a side exit, runs its one ``addi`` in the
    step body and falls through into the inner loop's translation
    without stepping through it."""
    image = _raw_image("\n".join([
        "addi r31, 3, r8",
        "outer:",
        "addi r31, 60, r7",
        "inner:",
        "subi r7, 1, r7",
        "bne r7, inner",
        "subi r8, 1, r8",
        "bne r8, outer",
        "halt",
    ]))
    inner = image.base + 2
    calls: list[tuple[int, int]] = []
    install = Machine._install

    def counted(self, block):
        run = block[0]

        def call(limit):
            # No watchdog, so the steps done are the budget less limit.
            next_pc, done = run(limit)
            calls.append((RUN_STEPS - limit, done))
            return next_pc, done

        return install(self, (call, *block[1:]))

    monkeypatch.setattr(Machine, "_install", counted)
    with _translate_after(DEFAULT_AFTER):
        machine = Machine(image, watchdog=0)
        machine.run(max_steps=RUN_STEPS)
    assert [pc for pc, block in enumerate(machine._at) if block] == [inner]
    # One call per outer pass; between two, only the ``addi`` stepped.
    assert len(calls) == 3
    for (start, done), (later, _) in zip(calls, calls[1:]):
        assert later - (start + done) == 1

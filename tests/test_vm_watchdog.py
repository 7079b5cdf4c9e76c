"""VM hang guard: WatchdogExpired semantics and cycle-model neutrality."""

import pytest

from repro.errors import SquashError, WatchdogExpired
from repro.isa import assemble
from repro.program import BasicBlock, Function, Program
from repro.program.layout import layout
from repro.vm.machine import FuelExhausted, Machine, MachineFault

from tests.conftest import MINI_TIMING_INPUT

pytestmark = pytest.mark.usefixtures("vm_translate_after")


def _spin_image():
    """An image that branches to itself forever."""
    program = Program("t")
    fn = Function("main")
    fn.add_block(
        BasicBlock("m.a", instrs=assemble("br 0"), branch_target="m.a")
    )
    program.add_function(fn)
    return layout(program).image


class TestWatchdog:
    def test_runaway_loop_trips_watchdog(self):
        machine = Machine(_spin_image(), watchdog=100)
        with pytest.raises(WatchdogExpired):
            machine.run(max_steps=1_000_000)

    def test_watchdog_is_squash_error_not_machine_fault(self):
        # A watchdog trip is a supervision event (the cell retries),
        # not a modelled machine fault.
        assert issubclass(WatchdogExpired, SquashError)
        assert not issubclass(WatchdogExpired, MachineFault)

    def test_fuel_still_wins_when_smaller(self):
        machine = Machine(_spin_image(), watchdog=1_000_000)
        with pytest.raises(FuelExhausted):
            machine.run(max_steps=100)

    def test_zero_watchdog_disables_the_guard(self):
        machine = Machine(_spin_image(), watchdog=0)
        with pytest.raises(FuelExhausted):
            machine.run(max_steps=500)

    def test_env_var_arms_the_guard(self, monkeypatch):
        monkeypatch.setenv("REPRO_VM_WATCHDOG", "100")
        machine = Machine(_spin_image())
        assert machine.watchdog == 100
        with pytest.raises(WatchdogExpired):
            machine.run(max_steps=1_000_000)

    def test_malformed_env_never_crashes_a_healthy_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_VM_WATCHDOG", "soon")
        machine = Machine(_spin_image())
        assert machine.watchdog == 0
        with pytest.raises(FuelExhausted):
            machine.run(max_steps=500)

    def test_budget_spans_run_calls(self):
        # The watchdog guards the machine's lifetime, not one run().
        machine = Machine(_spin_image(), watchdog=1000)
        with pytest.raises(FuelExhausted):
            machine.run(max_steps=600)
        with pytest.raises(WatchdogExpired):
            machine.run(max_steps=600)

    def test_service_loop_burns_surcharge(self):
        # A handler that never advances pc models a wedged runtime
        # service: guest steps stay ~0, but the per-invocation
        # surcharge trips the watchdog anyway.
        image = _spin_image()
        calls = []
        machine = Machine(
            image,
            services={image.entry_pc: lambda m: calls.append(1)},
            watchdog=640,
        )
        with pytest.raises(WatchdogExpired):
            machine.run(max_steps=1_000_000)
        assert 1 <= len(calls) <= 10
        assert machine.steps == 0  # no guest step ever retired


class TestCycleNeutrality:
    def test_guarded_run_is_cycle_identical(self, mini_layout):
        plain = Machine(
            mini_layout.image, input_words=MINI_TIMING_INPUT
        ).run(max_steps=2_000_000)
        guarded = Machine(
            mini_layout.image, input_words=MINI_TIMING_INPUT,
            watchdog=1 << 40,
        ).run(max_steps=2_000_000)
        assert guarded.cycles == plain.cycles
        assert guarded.steps == plain.steps
        assert guarded.output == plain.output
        assert guarded.exit_code == plain.exit_code

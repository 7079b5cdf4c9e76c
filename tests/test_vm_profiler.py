"""Basic-block profiling."""

import pytest

from repro.vm import machine as machine_mod
from repro.vm.machine import FuelExhausted, Machine
from repro.vm.profiler import Profile, collect_profile
from tests.conftest import MINI_PROFILE_INPUT, STEP_ONLY


def test_counts_match_execution(mini_program, mini_layout):
    profile = collect_profile(
        mini_program, mini_layout.image, [3, 4]
    )
    assert profile.counts["main.entry"] == 1
    assert profile.counts["main.loop"] == 3  # two items + EOF pass
    assert profile.counts["main.hot"] == 2
    assert profile.counts["main.done"] == 1
    assert profile.counts["main.coldcall"] == 0
    assert profile.counts["f.entry"] == 0


def test_tot_instr_ct_is_weighted_sum(mini_program, mini_layout):
    profile = collect_profile(mini_program, mini_layout.image, [3, 4])
    expected = sum(
        profile.counts[label] * profile.sizes[label]
        for label in profile.counts
    )
    assert profile.tot_instr_ct == expected
    # and close to the actual step count (inserted layout jumps differ)
    assert abs(profile.tot_instr_ct - profile.run.steps) <= 10


def test_never_executed(mini_program, mini_layout, mini_profile):
    # Every block of the program is listed, a never-executed one at 0.
    assert mini_profile.counts["f.entry"] == 0
    assert mini_profile.counts["g.entry"] == 0
    assert mini_profile.counts["main.hot"] > 0


def test_weight_and_freq(mini_profile):
    label = "main.hot"
    assert mini_profile.freq(label) > 0
    assert mini_profile.weight(label) == (
        mini_profile.freq(label) * mini_profile.sizes[label]
    )
    assert mini_profile.freq("no.such.block") == 0


def test_scaled():
    profile = Profile(
        counts={"a": 10, "b": 0}, sizes={"a": 4, "b": 2}, tot_instr_ct=40
    )
    scaled = profile.scaled(0.5)
    assert scaled.counts == {"a": 5, "b": 0}
    assert scaled.tot_instr_ct == 20


def test_profile_covers_all_blocks(mini_program, mini_profile):
    labels = {block.label for _, block in mini_program.all_blocks()}
    assert set(mini_profile.counts) == labels
    assert set(mini_profile.sizes) == labels


@pytest.mark.parametrize(
    "translate_after", [STEP_ONLY, 1], ids=["step", "translated"]
)
def test_resumed_run_counts_each_head_once(
    mini_layout, monkeypatch, translate_after
):
    # Stop at every budget short of the whole run, then resume: a head
    # the budget stopped at is counted when it executes, not twice.
    monkeypatch.setattr(machine_mod, "TRANSLATE_AFTER", translate_after)

    def machine():
        return Machine(
            mini_layout.image, input_words=MINI_PROFILE_INPUT,
            count_blocks=True,
        )

    whole = machine().run()
    for budget in range(1, whole.steps):
        stopped = machine()
        with pytest.raises(FuelExhausted):
            stopped.run(max_steps=budget)
        resumed = stopped.run()
        assert resumed.block_counts == whole.block_counts, budget
        assert (resumed.steps, resumed.cycles) == (whole.steps, whole.cycles)

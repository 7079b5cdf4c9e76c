"""The squash compiler against its reference, at a larger example count.

``tests/test_squash_compiler_oracle.py`` draws 15 generated programs ×
configurations per tier-1 run.  This module runs the same property
with 100 examples.  Its name keeps it out of tier-1; CI's
``squash-oracle`` job runs it at Hypothesis seeds 1-4::

    PYTHONPATH=src python -m pytest -q tests/squash_oracle_scale.py \\
        --hypothesis-seed=1
"""

from hypothesis import HealthCheck, given, settings

from tests.test_squash_compiler_oracle import cases, check_against_reference


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)
@given(case=cases())
def test_compiler_matches_reference_at_scale(case, monkeypatch):
    check_against_reference(case, monkeypatch)

"""Hypothesis strategies shared by the property tests.

:func:`micro_configs` draws scenarios far smaller than any preset: a
handful of instances, at most a few hundred accounts and a window of
days, with random blocked and dead fractions.  At that size the
pipeline reaches the paths no preset reaches (an empty federation
graph, a sweep that stops early, a degree tail with one value), so a
property over drawn configs checks what the fixed seeds cannot.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.fediverse.workload import ScenarioConfig


@st.composite
def micro_configs(draw) -> ScenarioConfig:
    """A :class:`ScenarioConfig` of 2–12 instances, up to 200 users, 2–30 days."""
    n_instances = draw(st.integers(2, 12))
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**16)),
        label="micro",
        n_instances=n_instances,
        total_users=draw(st.integers(n_instances, 200)),
        mean_toots_per_user=draw(st.floats(0.2, 6.0)),
        window_days=draw(st.integers(2, 30)),
        crawl_blocked_fraction=draw(st.floats(0.0, 0.5)),
        permanently_down_fraction=draw(st.floats(0.0, 0.5)),
    )

"""Differential oracles for the two containers the generators fill.

:class:`~repro.fediverse.uptime.AvailabilitySchedule` stores outage rows
and sorts each touched domain once per batch; ``tests/reference/uptime.py``
keeps the schedule that stored ``Outage`` objects and re-sorted after
every append.  Fed the same additions, every query must answer the same.
:class:`~repro.fediverse.timeline.Timeline` appends a toot above the
newest id and bisects otherwise; an ``insort`` list is its reference.
"""

from __future__ import annotations

from bisect import insort

from hypothesis import given, settings, strategies as st

from repro.fediverse.entities import Toot, UserRef
from repro.fediverse.timeline import Timeline
from repro.fediverse.uptime import ASOutageEvent, AvailabilitySchedule, Outage, OutageCause
from repro.simtime import MINUTES_PER_DAY, TimeWindow
from tests.reference.uptime import AvailabilitySchedule as ReferenceSchedule

#: Three whole days and a partial one, so the per-day fractions drop a tail.
WINDOW = 3 * MINUTES_PER_DAY + 100
DOMAINS = ("a.example", "b.example", "c.example")
#: Starts that recur, so equal starts, adjacent windows and the window's
#: edges come up often.
EDGES = (-50, 0, 1, 100, 160, MINUTES_PER_DAY, WINDOW - 1, WINDOW, WINDOW + 20)

starts = st.one_of(st.sampled_from(EDGES), st.integers(-200, WINDOW + 200))
lengths = st.one_of(st.sampled_from((0, 1, 60, MINUTES_PER_DAY)), st.integers(0, 2 * WINDOW))
causes = st.sampled_from(list(OutageCause))


@st.composite
def outages(draw) -> Outage:
    start = draw(starts)
    return Outage(
        draw(st.sampled_from(DOMAINS)), TimeWindow(start, start + draw(lengths)), draw(causes)
    )


@st.composite
def as_events(draw) -> ASOutageEvent:
    start = draw(starts)
    domains = draw(st.lists(st.sampled_from(DOMAINS), min_size=1, max_size=3, unique=True))
    return ASOutageEvent(draw(st.integers(1, 9)), TimeWindow(start, start + draw(lengths)),
                         tuple(domains))


additions = st.lists(
    st.one_of(
        st.tuples(st.just("outage"), outages()),
        st.tuples(st.just("outages"), st.lists(outages(), max_size=6)),
        st.tuples(st.just("as_event"), as_events()),
        st.tuples(
            st.just("permanent"),
            st.tuples(st.sampled_from(DOMAINS), st.integers(-100, WINDOW)),
        ),
    ),
    max_size=12,
)


def populate(schedule, steps) -> None:
    for kind, value in steps:
        if kind == "outage":
            schedule.add_outage(value)
        elif kind == "outages":
            schedule.add_outages(value)
        elif kind == "as_event":
            schedule.add_as_event(value)
        else:
            schedule.mark_permanently_down(*value)


def boundaries(schedule: ReferenceSchedule, domain: str) -> set[int]:
    minutes = {-1, 0, WINDOW - 1, WINDOW}
    for outage in schedule.outages_for(domain):
        minutes |= {outage.start - 1, outage.start, outage.end - 1, outage.end}
    return minutes


@settings(max_examples=300, deadline=None)
@given(steps=additions, data=st.data())
def test_schedule_answers_as_the_resorting_reference(steps, data):
    reference = ReferenceSchedule(WINDOW)
    schedule = AvailabilitySchedule(WINDOW)
    populate(reference, steps)
    populate(schedule, steps)

    assert list(schedule.domains()) == list(reference.domains())
    assert schedule.as_events() == reference.as_events()
    for domain in (*DOMAINS, "unknown.example"):
        assert schedule.outages_for(domain) == reference.outages_for(domain)
        for minute in boundaries(reference, domain):
            assert schedule.is_online(domain, minute) == reference.is_online(domain, minute)
            assert schedule.is_permanently_down(domain, minute) == (
                reference.is_permanently_down(domain, minute)
            )
        assert schedule.is_permanently_down(domain) == reference.is_permanently_down(domain)
        assert schedule.downtime_minutes(domain) == reference.downtime_minutes(domain)
        assert schedule.downtime_fraction(domain) == reference.downtime_fraction(domain)
        for _ in range(4):
            start = data.draw(st.integers(-100, WINDOW + 100))
            end = data.draw(st.integers(start, WINDOW + 200))
            assert schedule.downtime_minutes(domain, start, end) == (
                reference.downtime_minutes(domain, start, end)
            )
            if end > start:
                assert schedule.downtime_fraction(domain, start, end) == (
                    reference.downtime_fraction(domain, start, end)
                )
        assert schedule.daily_downtime_fractions(domain) == (
            reference.daily_downtime_fractions(domain)
        )
        assert schedule.merged_outage_windows(domain) == reference.merged_outage_windows(domain)
        assert schedule.continuous_outage_days(domain) == (
            reference.continuous_outage_days(domain)
        )
        assert schedule.longest_outage_days(domain) == reference.longest_outage_days(domain)


def test_equal_starts_keep_their_append_order():
    """Ties on ``start`` keep append order, across single adds and batches."""
    steps = [
        ("outage", Outage("a.example", TimeWindow(100, 400), OutageCause.INSTANCE)),
        ("outages", [
            Outage("a.example", TimeWindow(100, 200), OutageCause.CERTIFICATE),
            Outage("a.example", TimeWindow(50, 300), OutageCause.INSTANCE),
            Outage("a.example", TimeWindow(100, 150), OutageCause.INSTANCE),
        ]),
        ("as_event", ASOutageEvent(7, TimeWindow(100, 120), ("a.example",))),
    ]
    reference = ReferenceSchedule(WINDOW)
    schedule = AvailabilitySchedule(WINDOW)
    populate(reference, steps)
    populate(schedule, steps)
    expected = [(50, 300), (100, 400), (100, 200), (100, 150), (100, 120)]
    assert [(o.start, o.end) for o in reference.outages_for("a.example")] == expected
    assert schedule.outages_for("a.example") == reference.outages_for("a.example")


def make_toot(toot_id: int) -> Toot:
    return Toot(toot_id=toot_id, author=UserRef("alice", "alpha.example"), created_at=toot_id)


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(
        st.one_of(st.integers(1, 40), st.integers(1, 10_000)), max_size=60
    ).map(lambda ids: ids + sorted(ids)[-3:])
)
def test_timeline_add_matches_insort(ids):
    """Random ids, repeats and out-of-order arrivals against ``insort``."""
    timeline = Timeline()
    expected: list[int] = []
    for toot_id in ids:
        fresh = toot_id not in expected
        if fresh:
            insort(expected, toot_id)
        assert timeline.add(make_toot(toot_id)) is fresh
    assert [toot.toot_id for toot in timeline] == expected
    assert timeline.newest_id() == (expected[-1] if expected else None)

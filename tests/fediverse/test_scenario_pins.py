"""SHA-256 pins of the outage schedule and the timelines a scenario builds.

Both scenario generators draw every instance's outages through one
:class:`~repro.fediverse.uptime.AvailabilitySchedule`, and the object
generator fills every instance's timelines one toot at a time.  These
pins hold both containers to the exact contents the generators produced
before either container's storage changed: every domain's outage rows in
``domains()`` order (``FaultInjector.from_schedule`` reads that order),
the AS-wide events, the permanent-down minutes, and each instance's
federated and local timeline id order.  A pin that moves means a seeded
scenario moved.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.fediverse import build_columnar_scenario, build_scenario

SCHEDULE_PINS = {
    ("object", "tiny", 11): "9887a9d6a0b1315f61af78a7964161bd2e066d76fc109788a71e6ffe71177ffb",
    ("columnar", "tiny", 11): "cd7476b2449a559cab71dfc3da6e6c3df1a227b312823eed9f9bf16b30055081",
    ("columnar", "medium", 42): "c1bfe31ad0adca01f4babbc9427121220f180d71c9b62aa8fd3837a85cdc8084",
}
TIMELINE_PIN_TINY_11 = "1e88aec9a3cb4050e167d51024cabd15cd6abcce23e5479bbffe10a5ff1bc2e7"


def schedule_digest(schedule) -> str:
    digest = hashlib.sha256()
    for domain in schedule.domains():
        rows = [(o.start, o.end, o.cause.value) for o in schedule.outages_for(domain)]
        digest.update(repr((domain, rows)).encode())
    events = [(e.asn, e.window.start, e.window.end, e.domains) for e in schedule.as_events()]
    digest.update(repr(events).encode())
    # no public accessor returns the minute an instance went for good
    digest.update(repr(sorted(schedule._permanently_down_from.items())).encode())
    return digest.hexdigest()


def timeline_digest(network) -> str:
    digest = hashlib.sha256()
    for instance in network.instances():
        federated = [toot.toot_id for toot in instance.federated_timeline]
        local = [toot.toot_id for toot in instance.local_timeline]
        digest.update(repr((instance.domain, federated, local)).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def tiny_object_network():
    return build_scenario("tiny", seed=11)


def test_object_tiny_schedule_pin(tiny_object_network):
    assert schedule_digest(tiny_object_network.availability) == SCHEDULE_PINS[
        ("object", "tiny", 11)
    ]


def test_object_tiny_timeline_pin(tiny_object_network):
    assert timeline_digest(tiny_object_network) == TIMELINE_PIN_TINY_11


@pytest.mark.parametrize("preset, seed", [("tiny", 11), ("medium", 42)])
def test_columnar_schedule_pin(preset, seed):
    scenario = build_columnar_scenario(preset, seed=seed)
    assert schedule_digest(scenario.availability) == SCHEDULE_PINS[("columnar", preset, seed)]

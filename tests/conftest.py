"""Shared fixtures: a tiny synthetic fediverse and the datasets built from it.

Expensive artefacts (scenario generation, the measurement pipeline) are
session-scoped so the whole suite pays for them once; tests that need to
mutate state build their own small networks instead.
"""

from __future__ import annotations

import tempfile
from typing import Iterable

import pytest

from repro import CollectedDatasets, build_scenario, collect_datasets
from repro.corpus import CorpusWriter
from repro.crawler import SimulatedTransport
from repro.crawler.toot_crawler import TootRecord
from repro.datasets import TootsDataset
from repro.fediverse import FediverseNetwork, InstanceDescriptor, RegistrationPolicy
from repro.fediverse.entities import UserRef
from repro.simtime import SimClock

TINY_SEED = 11


@pytest.fixture(scope="session")
def tiny_network():
    """A generated tiny fediverse shared (read-only) across the suite."""
    return build_scenario("tiny", seed=TINY_SEED)


@pytest.fixture(scope="session")
def tiny_transport(tiny_network):
    """A transport over the tiny fediverse."""
    return SimulatedTransport(tiny_network)


@pytest.fixture(scope="session")
def datasets(tiny_network) -> CollectedDatasets:
    """The full measurement pipeline run once over the tiny fediverse."""
    return collect_datasets(tiny_network, monitor_interval_minutes=12 * 60)


def build_mini_network(window_days: int = 30) -> FediverseNetwork:
    """A tiny hand-built fediverse with three instances and a few accounts.

    Used by unit tests that need full control over the population (and do
    not want the stochastic scenario generator).
    """
    clock = SimClock(window_days=window_days)
    network = FediverseNetwork(clock=clock)
    network.add_instance(
        InstanceDescriptor(
            domain="alpha.example", country="JP", asn=9370, ip_address="10.0.0.1"
        )
    )
    network.add_instance(
        InstanceDescriptor(
            domain="beta.example", country="US", asn=16509, ip_address="10.0.1.1"
        )
    )
    network.add_instance(
        InstanceDescriptor(
            domain="gamma.example",
            country="FR",
            asn=16276,
            ip_address="10.0.2.1",
            registration=RegistrationPolicy.CLOSED,
        )
    )
    for username in ("alice", "akira"):
        network.register_user("alpha.example", username, created_at=0)
    network.register_user("beta.example", "bob", created_at=0)
    network.register_user("gamma.example", "chloe", created_at=0, invited=True)
    return network


@pytest.fixture()
def mini_network() -> FediverseNetwork:
    """A fresh hand-built three-instance fediverse for mutation-friendly tests."""
    return build_mini_network()


def ref(handle: str) -> UserRef:
    """Shorthand to build a UserRef from ``user@domain`` in tests."""
    return UserRef.parse(handle)


def corpus_toots(
    records: Iterable[TootRecord],
    *,
    empty_instances: Iterable[str] = (),
    crawl_minute: int = 0,
) -> TootsDataset:
    """The toots dataset of hand-built records, through a temporary corpus.

    Each record is an observation on its ``collected_from`` instance;
    ``empty_instances`` were crawled and showed nothing.  The corpus
    directory is removed once the dataset is garbage-collected.
    """
    observed: dict[str, list[TootRecord]] = {domain: [] for domain in empty_instances}
    for record in records:
        observed.setdefault(record.collected_from, []).append(record)
    writer = CorpusWriter(tempfile.mkdtemp(prefix="repro-test-corpus-"))
    for domain, rows in observed.items():
        writer.add_records(domain, rows)
        writer.end_instance(domain)
    store = writer.finalise(crawl_minute=crawl_minute)
    store.delete_when_collected()
    return TootsDataset.from_corpus(store)

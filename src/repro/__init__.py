"""repro — a reproduction toolkit for "Challenges in the Decentralised Web:
The Mastodon Case" (Raman et al., IMC 2019).

The package is organised in layers:

* :mod:`repro.fediverse` — a self-contained Mastodon/Pleroma simulator
  (instances, users, toots, federation, hosting, certificates, outages)
  standing in for the live network the paper measured;
* :mod:`repro.crawler` — the measurement tooling (instance monitor, toot
  crawler, follower-graph crawler) speaking to instances over a simulated
  HTTP transport;
* :mod:`repro.datasets` — the paper's three datasets plus the Twitter
  baselines, read from the columnar stores the crawlers write
  (:mod:`repro.corpus`);
* :mod:`repro.core` — the analyses behind every figure and table;
* :mod:`repro.engine` — the sparse-matrix failure-simulation engine the
  resilience/replication hot paths (Figs. 11-16) dispatch through;
* :mod:`repro.reporting` — table/figure rendering and the experiment index.

Quick start::

    from repro import build_scenario, collect_datasets

    network = build_scenario("small", seed=7)
    datasets = collect_datasets(network)
    print(datasets.instances.total_users(), "users on", len(datasets.instances), "instances")
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import DatasetError, ReproError
from repro.fediverse import FediverseNetwork, ScenarioConfig, ScenarioGenerator, build_scenario
from repro.crawler import (
    CircuitBreaker,
    FaultInjector,
    FaultRates,
    FaultyTransport,
    FollowerGraphCrawler,
    InstanceMonitor,
    ResilientTransport,
    RetryPolicy,
    SimulatedTransport,
    TootCrawler,
)
from repro.datasets import GraphDataset, InstancesDataset, TootsDataset, TwitterBaselines

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus import CorpusStore, GraphStore

__version__ = "1.0.0"

#: Worker threads of each crawl (the toot and the follower crawl alike).
CRAWL_THREADS = 8

__all__ = [
    "CircuitBreaker",
    "CollectedDatasets",
    "FaultInjector",
    "FaultRates",
    "FaultyTransport",
    "FediverseNetwork",
    "GraphDataset",
    "ResilientTransport",
    "RetryPolicy",
    "InstancesDataset",
    "ReproError",
    "ScenarioConfig",
    "ScenarioGenerator",
    "TootsDataset",
    "TwitterBaselines",
    "__version__",
    "build_scenario",
    "collect_datasets",
]


@dataclass
class CollectedDatasets:
    """The three paper datasets collected from one simulated fediverse."""

    instances: InstancesDataset
    toots: TootsDataset
    graphs: GraphDataset
    network: FediverseNetwork
    #: The columnar corpus the toot crawl streamed into (``toots`` reads it).
    corpus: "CorpusStore"
    #: The edge-shard store the follower crawl streamed into (``graphs``
    #: is rebuilt from its edges).
    graph_store: "GraphStore"
    #: Fetched-versus-attempted accounting of the toot crawl
    #: (:meth:`CrawlCoverage.as_dict
    #: <repro.crawler.toot_crawler.CrawlCoverage.as_dict>`); ``None``
    #: only when an existing corpus without coverage was reused.
    coverage: "dict | None" = None
    #: The follower crawl's coverage accounting, same shape.
    graph_coverage: "dict | None" = None


def collect_datasets(
    network: FediverseNetwork,
    monitor_interval_minutes: int = 24 * 60,
    corpus_dir: "str | Path | None" = None,
    corpus_shard_size: int | None = None,
    graph_dir: "str | Path | None" = None,
    fault_rates: "FaultRates | float | None" = None,
    fault_seed: int = 0,
    retry_policy: "RetryPolicy | int | None" = None,
    breaker: "CircuitBreaker | None" = None,
    resume: bool = False,
    politeness_delay: float = 0.0,
) -> CollectedDatasets:
    """Run the full measurement pipeline against a simulated fediverse.

    This is the one-call equivalent of the paper's data collection: poll
    every instance's API across the observation window, crawl every
    federated timeline, scrape every follower list, and assemble the
    datasets the analyses consume.

    ``monitor_interval_minutes`` defaults to daily probes (the paper used
    five minutes over fifteen months; the analyses only need the relative
    resolution, and daily probing keeps the default pipeline fast).

    The toot crawl streams page by page into a columnar corpus
    (:mod:`repro.corpus`) at ``corpus_dir``, and the follower crawl
    streams each ego network into an edge-shard store
    (:mod:`repro.corpus.graph`) at ``graph_dir``; ``corpus`` and
    ``graph_store`` carry the opened stores.  The ``toots`` dataset
    answers from the corpus columns, placements and availability sweeps
    build from them directly, and the networkx-backed ``graphs`` dataset
    is rebuilt from the store's decoded edges (identical graph, since the
    store preserves crawl order).  Without a directory, a store is written
    to a temporary directory that is removed once the store object is
    garbage-collected, or at interpreter exit.  A directory that already
    holds a manifest (a previous ``collect``) is **reused** instead of
    re-crawled, after checking its crawled instances belong to this
    scenario — collect once, run many.  ``corpus_shard_size`` overrides
    the default toots-per-shard split.

    Resilience knobs: ``fault_rates`` (a
    :class:`~repro.crawler.faults.FaultRates`, or a float total rate
    split uniformly across the failure modes) wraps the transport in a
    seeded chaos layer (``fault_seed``); ``retry_policy`` (a
    :class:`~repro.crawler.resilient.RetryPolicy`, or an int
    ``max_attempts``) plus an optional per-instance circuit ``breaker``
    wrap it in retries with backoff.  The monitor and both crawlers all
    route through the same wrapped transport.  ``resume=True`` reopens
    interrupted corpus/graph writers from their crawl journals — sealed
    instances are never re-crawled; ``politeness_delay`` spaces
    per-instance requests (useful to widen the crash window in tests).
    """
    from repro.corpus import DEFAULT_CORPUS_SHARD_SIZE, CorpusWriter, GraphWriter

    transport = SimulatedTransport(network)
    if fault_rates is not None:
        rates = (
            fault_rates
            if isinstance(fault_rates, FaultRates)
            else FaultRates.uniform(float(fault_rates))
        )
        transport = FaultyTransport(transport, FaultInjector(seed=fault_seed, rates=rates))
    if retry_policy is not None:
        policy = (
            retry_policy
            if isinstance(retry_policy, RetryPolicy)
            else RetryPolicy(max_attempts=int(retry_policy))
        )
        transport = ResilientTransport(transport, policy=policy, breaker=breaker)
    monitor = InstanceMonitor(transport, network.domains(), monitor_interval_minutes)
    instances = InstancesDataset.build(network, monitor.run())

    crawl_options = dict(threads=CRAWL_THREADS, politeness_delay=politeness_delay)
    corpus, coverage = _collect_store(
        TootCrawler(transport, **crawl_options),
        CorpusWriter,
        corpus_dir,
        network,
        resume=resume,
        shard_size=corpus_shard_size or DEFAULT_CORPUS_SHARD_SIZE,
    )
    graph_store, graph_coverage = _collect_store(
        FollowerGraphCrawler(transport, **crawl_options),
        GraphWriter,
        graph_dir,
        network,
        resume=resume,
    )
    return CollectedDatasets(
        instances=instances,
        toots=TootsDataset.from_corpus(corpus),
        graphs=GraphDataset.from_edges(graph_store.iter_edge_handles()),
        network=network,
        corpus=corpus,
        graph_store=graph_store,
        coverage=coverage,
        graph_coverage=graph_coverage,
    )


def _collect_store(
    crawler: "TootCrawler | FollowerGraphCrawler",
    writer_class: type,
    directory: "str | Path | None",
    network: FediverseNetwork,
    **writer_options: object,
) -> "tuple[CorpusStore | GraphStore, dict | None]":
    """Crawl into a store at ``directory``; returns ``(store, coverage)``.

    A directory that already holds a manifest is opened instead of
    crawled, once its crawled instances are checked against
    ``network``.  With no directory, the crawl goes to a temporary one
    that lives as long as the returned store object (and is removed at
    once if the crawl or the merge fails).
    """
    store_class = writer_class.store_class
    kind = store_class.kind
    if directory and (Path(directory) / "manifest.json").exists():
        store = store_class(directory)
        crawled = store.observations if kind == "corpus" else store.edges_collected
        unknown = set(crawled) - set(network.domains())
        if unknown:
            raise DatasetError(
                f"the {kind} store at {directory} was crawled from a different "
                f"scenario ({len(unknown)} unknown instance domain(s), e.g. "
                f"{sorted(unknown)[0]!r}); point --{kind} at a fresh directory"
            )
        return store, store.coverage
    path = directory or tempfile.mkdtemp(prefix=f"repro-{kind}-")
    try:
        writer = writer_class(path, **writer_options)
        crawl = crawler.crawl(sink=writer)
        coverage = crawl.coverage().as_dict()
        store = writer.finalise(crawl_minute=crawl.crawl_minute, coverage=coverage)
    except BaseException:
        if not directory:
            shutil.rmtree(path, ignore_errors=True)
        raise
    if not directory:
        store.delete_when_collected()
    return store, coverage

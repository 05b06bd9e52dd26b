"""The measurement pipeline: poll, crawl and assemble the paper's datasets.

:func:`collect_datasets` runs the three stages of the paper's data
collection against a simulated fediverse, over one shared transport
(:class:`CrawlSession`): the instance monitor, the toot crawl into a
columnar corpus store and the follower crawl into a graph store.  It is
re-exported as ``repro.collect_datasets``; importing it loads the whole
crawl stack (crawler, corpus writers, datasets), which a process that
only serves queries never needs.

The session works out its crawl width from its own inputs.  The
simulated transport answers in-process, so a request waits only when a
politeness delay or a retry backoff sleeps.  Without either, every crawl
worker is CPU-bound under the GIL and extra workers only contend for it,
so the crawls run on one worker (on pipeline-small, a 2-core VM, one
worker cut the collect from a 6.01 s to a 4.09 s median over 10 paired
runs).  With a delay or retries they run :data:`CRAWL_THREADS` workers,
which overlap the sleeps.  No output depends on the width: the merge
reads spools in sorted-domain order, crawl reports sort their outcomes,
and fault streams are drawn per domain by request index.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.corpus import DEFAULT_CORPUS_SHARD_SIZE, CorpusWriter, GraphWriter
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
from repro.datasets import GraphDataset, InstancesDataset, TootsDataset
from repro.errors import DatasetError
from repro.fediverse import FediverseNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus import CorpusStore, GraphStore
    from repro.crawler.monitor import MonitoringLog

#: Worker threads of each crawl (the toot and the follower crawl alike)
#: when a request can wait on a politeness delay or a retry backoff; a
#: crawl whose requests never sleep runs on one worker (see above).
CRAWL_THREADS = 8


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
    #: holds its columns).
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
    build from them directly, and the ``graphs`` dataset holds the graph
    store's integer columns (no edge is decoded to its handles).  Without
    a directory, a store is written to a temporary directory that is
    removed once the store object is garbage-collected, or at interpreter
    exit.  A directory that already
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
    The crawls run on one worker unless a politeness delay or retries
    can make a request wait (see the module docstring).
    """
    crawl = CrawlSession(
        network,
        fault_rates=fault_rates,
        fault_seed=fault_seed,
        retry_policy=retry_policy,
        breaker=breaker,
        resume=resume,
        politeness_delay=politeness_delay,
    )
    instances = InstancesDataset.build(network, crawl.monitor(monitor_interval_minutes))
    corpus, coverage = crawl.toots(corpus_dir, corpus_shard_size)
    graph_store, graph_coverage = crawl.followers(graph_dir)
    return CollectedDatasets(
        instances=instances,
        toots=TootsDataset.from_corpus(corpus),
        graphs=GraphDataset.from_store(graph_store),
        network=network,
        corpus=corpus,
        graph_store=graph_store,
        coverage=coverage,
        graph_coverage=graph_coverage,
    )


class CrawlSession:
    """The stages of :func:`collect_datasets`, over one shared transport.

    The monitor, the toot crawl and the follower crawl run in that order
    through one transport, wrapped in the seeded chaos layer and the
    retries when asked (see :func:`collect_datasets` for the knobs).  A
    seeded fault schedule draws per request, so a caller that skips a
    stage must still run the ones before it to fault the same requests;
    :attr:`monitor_shapes_crawl` says whether the monitor is such a stage.
    ``crawl_options`` holds the crawlers' width and politeness delay.
    """

    def __init__(
        self,
        network: FediverseNetwork,
        fault_rates: "FaultRates | float | None" = None,
        fault_seed: int = 0,
        retry_policy: "RetryPolicy | int | None" = None,
        breaker: "CircuitBreaker | None" = None,
        resume: bool = False,
        politeness_delay: float = 0.0,
    ) -> None:
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
        self.network = network
        self.transport = transport
        self.resume = resume
        # only RateLimiter.acquire and the retry backoff sleep; without
        # them more workers than one only contend for the GIL
        waits = politeness_delay > 0 or retry_policy is not None
        self.crawl_options = dict(
            threads=CRAWL_THREADS if waits else 1, politeness_delay=politeness_delay
        )
        #: Whether the monitor's requests change what the crawls see.  The
        #: bare transport keeps no state between requests and the monitor
        #: does not move the clock; a seeded fault stream is drawn per
        #: domain by request index, and retries keep per-domain budgets and
        #: breakers.
        self.monitor_shapes_crawl = fault_rates is not None or retry_policy is not None

    def monitor(self, interval_minutes: int) -> "MonitoringLog":
        """Poll every instance's API across the observation window."""
        domains = self.network.domains()
        return InstanceMonitor(self.transport, domains, interval_minutes).run()

    def toots(
        self, directory: "str | Path | None", shard_size: int | None = None
    ) -> "tuple[CorpusStore, dict | None]":
        """Crawl every federated timeline into a corpus store at ``directory``."""
        return _collect_store(
            TootCrawler(self.transport, **self.crawl_options),
            CorpusWriter,
            directory,
            self.network,
            resume=self.resume,
            shard_size=shard_size or DEFAULT_CORPUS_SHARD_SIZE,
        )

    def followers(
        self, directory: "str | Path | None"
    ) -> "tuple[GraphStore, dict | None]":
        """Crawl every follower list into a graph store at ``directory``."""
        return _collect_store(
            FollowerGraphCrawler(self.transport, **self.crawl_options),
            GraphWriter,
            directory,
            self.network,
            resume=self.resume,
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

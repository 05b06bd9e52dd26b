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
* :mod:`repro.collect` — :func:`collect_datasets`, the whole measurement
  pipeline from a simulated network to those datasets;
* :mod:`repro.core` — the analyses behind every figure and table;
* :mod:`repro.engine` — the sparse-matrix failure-simulation engine the
  resilience/replication hot paths (Figs. 11-16) dispatch through;
* :mod:`repro.reporting` — table/figure rendering and the experiment index.

The names below resolve on first use (a module-level ``__getattr__``,
PEP 562), each by importing the module that defines it:
``from repro import collect_datasets`` loads the crawl stack, while
``import repro.serve`` loads only the corpus, the engine kernels and the
HTTP front, never the simulator, the crawler or networkx.

Quick start::

    from repro import build_scenario, collect_datasets

    network = build_scenario("small", seed=7)
    datasets = collect_datasets(network)
    print(datasets.instances.total_users(), "users on", len(datasets.instances), "instances")
"""

from __future__ import annotations

import importlib

from repro.errors import DatasetError, ReproError

__version__ = "1.0.0"

#: The module that defines each name re-exported here; ``__getattr__``
#: imports it the first time the name is looked up.
_EXPORTS = {
    **dict.fromkeys(
        ("CRAWL_THREADS", "CollectedDatasets", "CrawlSession", "collect_datasets"),
        "repro.collect",
    ),
    **dict.fromkeys(
        (
            "CircuitBreaker",
            "FaultInjector",
            "FaultRates",
            "FaultyTransport",
            "FollowerGraphCrawler",
            "InstanceMonitor",
            "ResilientTransport",
            "RetryPolicy",
            "SimulatedTransport",
            "TootCrawler",
        ),
        "repro.crawler",
    ),
    **dict.fromkeys(
        ("GraphDataset", "InstancesDataset", "TootsDataset", "TwitterBaselines"),
        "repro.datasets",
    ),
    **dict.fromkeys(
        ("FediverseNetwork", "ScenarioConfig", "ScenarioGenerator", "build_scenario"),
        "repro.fediverse",
    ),
}

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


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value

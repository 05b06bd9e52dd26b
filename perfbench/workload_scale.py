"""``scale-medium``: bulk columnar collect and the engine's sharded sweep.

``build_columnar_scenario`` → ``write_corpus``/``CorpusWriter.finalise``
and ``write_graph``/``GraphWriter.finalise`` (the ``collect --columnar``
path) → the fig15 ∪ fig16 strategy grid built with
``StrategySpec.build_from_corpus`` and folded by ``availability_curves``
over the corpus' own shards.  No crawler and no HTTP code runs, so
crawl- and serve-side changes should leave this workload flat.
"""

from __future__ import annotations

import time

import batch
from harness import (
    Ledger, WorkDir, collect_columnar, emit, median, peak_rss_mib, provenance, reset_peak_rss,
)

PRESET = "medium"
#: Fixed dataset (see ``workload_pipeline.DATASET_SEED``); ``--seed``
#: seeds the random placements of the grid.
DATASET_SEED = 42
#: Toots per corpus shard, and the sweep's shard size: 5 shards at
#: medium, so every curve streams through the sharded fold.
SHARD_TOOTS = 40_000
#: Nominal seconds of one pass (a 2-core VM: set-up 1.3-1.7, collect
#: 10-12.5, answer 4.2-5.5); ``--seconds`` over it fixes the passes per run.
PASS_S = 17.5
REPLICA_COUNTS = (1, 2, 3, 4, 7, 9)
#: Scenario builds per pass; ``setup_s`` is their median.  A build takes
#: about 1.2 s, so one sample per pass would leave ``setup_s`` to chance.
SETUPS = 3


def strategy_grid(seed: int, weights: dict[str, float]):
    """no-rep, s-rep, and seven random strategies at three placement seeds."""
    from repro.engine import StrategySpec

    grid = [StrategySpec.none(), StrategySpec.subscription()]
    for placement_seed in (seed, seed + 1, seed + 2):
        grid += [
            StrategySpec.random(n, seed=placement_seed, name=f"n={n}/seed={placement_seed}")
            for n in REPLICA_COUNTS
        ]
        grid.append(
            StrategySpec.random(
                2, seed=placement_seed, weights=weights,
                name=f"n=2/weighted/seed={placement_seed}",
            )
        )
    return grid


def run(seed: int, seconds: float, trace: bool, ledger: Ledger) -> dict:
    from repro.engine import availability_curves
    from repro.fediverse import build_columnar_scenario
    from repro.serve import AvailabilityService

    work = WorkDir("scale")

    def one_pass(span, check: bool) -> dict[str, float]:
        rss: list[float] = []
        setups: list[float] = []
        reset_peak_rss()
        for build in range(SETUPS):
            scenario = None  # the previous build is freed before the next
            traced = span if build == SETUPS - 1 else batch.no_span
            started = time.perf_counter()
            with traced("phase.setup"), traced("fediverse.columnar_build"):
                scenario = build_columnar_scenario(PRESET, seed=DATASET_SEED)
            setups.append(time.perf_counter() - started)
        setup_s = median(setups)
        rss.append(peak_rss_mib())

        directory = work.fresh("stores")
        collect_s, collect_rss, corpus, graph = collect_columnar(
            scenario, directory, span, shard_size=SHARD_TOOTS
        )
        rss.append(collect_rss)
        del scenario

        curves: dict[str, dict] = {}
        kept = {}
        raised = 0
        reset_peak_rss()
        started = time.perf_counter()
        with span("phase.answer"):
            # the three store-derivable removal schedules, derived as serve does
            service = AvailabilityService(directory / "corpus", directory / "graph")
            failures = list(service.failures().values())
            users = graph.users_per_instance()
            weights = {d: 1.0 + users.get(d, 0) for d in service.candidates}
            grid = strategy_grid(seed, weights)
            for spec in grid:
                try:
                    placements = spec.build_from_corpus(
                        corpus, graphs=graph, candidate_domains=service.candidates
                    )
                    curves[spec.name] = availability_curves(
                        placements, failures, shard_size=SHARD_TOOTS
                    )
                except Exception as exc:  # a raising strategy fails its curves
                    raised += len(failures)
                    print(f"strategy {spec.name} raised {exc!r}", flush=True)
                    continue
                if spec.kind != "random":
                    kept[spec.name] = placements
        answer_s = time.perf_counter() - started
        rss.append(peak_rss_mib())
        ledger.ops(len(grid) * len(failures), raised)

        if check:
            _check(ledger, kept, curves, failures)
            emit({"provenance": provenance(
                workload="scale-medium", seed=seed, preset=PRESET,
                dataset_seed=DATASET_SEED, corpus=corpus, graph=graph,
            )})
        values = {
            "setup_s": setup_s,
            "collect_s": collect_s,
            "answer_s": answer_s,
            "peak_rss_mib": max(rss),
            "rss.collect_mib": rss[1],
            "rss.sweep_mib": rss[2],
            "corpus.observations": corpus.n_observations,
            "corpus.toots": corpus.n_toots,
            "corpus.dedup_ratio": corpus.n_toots / corpus.n_observations,
        }
        del kept, curves, service, corpus, graph
        work.drop(directory)
        return values

    try:
        return batch.run(one_pass, batch.pass_count(seconds, PASS_S), trace, ledger)
    finally:
        work.close()


def _check(ledger: Ledger, kept: dict, curves: dict, failures: list) -> None:
    from repro.engine import availability_curves

    for name, placements in kept.items():
        monolithic = availability_curves(placements, failures, shard_size=0)
        ledger.check(
            f"{name} sharded curves equal the shard_size=0 curves",
            all(
                [p.availability for p in monolithic[f.name]]
                == [p.availability for p in curves[name][f.name]]
                for f in failures
            ),
        )
    shapes = [
        [p.availability for p in curve]
        for by_failure in curves.values()
        for curve in by_failure.values()
    ]
    ledger.check(
        "every curve starts at 1.0 and never rises",
        all(c[0] == 1.0 and all(b <= a for a, b in zip(c, c[1:])) for c in shapes),
        f"{len(shapes)} curves",
    )
    ledger.check(
        "s-rep >= no-rep at every step",
        all(
            s.availability >= n.availability
            for f in failures
            for s, n in zip(curves["s-rep"][f.name], curves["no-rep"][f.name])
        ),
    )

"""Serving-layer latency gates (the PR 8 gate).

The serving subsystem (:mod:`repro.serve`) claims its one-time build is
amortised and that per-query work is O(answer).  This benchmark builds
(or reuses) a columnar corpus + graph store at the ``large`` preset,
warms one :class:`~repro.serve.AvailabilityService` over it, and gates
three claims:

1. **identity** — the warm service's full-corpus curve is bit-identical
   to :func:`~repro.engine.sweep.availability_curves` over the same
   placement arrays (the batch sweep, monolithic path);
2. **latency** — every subset verb the service answers (per-user and
   per-instance availability, home timelines) answers from the warm
   service at ``p50 <= 10 ms`` and ``p99 <= 100 ms``;
3. **throughput** — the mixed stream sustains ``>= 200`` queries/sec of
   wall-clock time, and so does each verb over the time spent on it.

The query stream is the served mix: users and instances are drawn in
proportion to their toot counts, as the ``serve-medium`` load generator
draws them, so the prolific users and big instances whose subsets are
largest are asked about as often as their share of the toots; the verbs
keep that generator's shares (50 user : 15 instance : 20 timeline).

The hard thresholds apply at the ``large`` preset on hosts with 4+
cores; smaller presets, ``--relaxed``, or 1-core CI runners gate the
same invariants at relaxed thresholds (the committed
``BENCH_engine.json`` carries the recorded ``large`` baseline).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve_latency.py [--preset tiny --relaxed]

Reusing an existing store skips the collect::

    PYTHONPATH=src python benchmarks/bench_serve_latency.py \\
        --corpus corpus/ --graph graph/
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.engine.sweep import availability_curves
from repro.fediverse import build_columnar_scenario
from repro.serve import AvailabilityService

#: Hard gates: the `large`-preset / 4+ core contract.
HARD_P50_MS = 10.0
HARD_P99_MS = 100.0
HARD_MIN_QPS = 200.0

#: Relaxed gates for hosted 1-core runners and small presets: the same
#: invariants, an order of magnitude of headroom.
RELAXED_P50_MS = 100.0
RELAXED_P99_MS = 1_000.0
RELAXED_MIN_QPS = 20.0

WARMUP_QUERIES = 50
DEFAULT_QUERIES = 2_000
QUERY_SEED = 42


def build_stores(preset: str, corpus_dir: Path, graph_dir: Path, seed: int = 7) -> None:
    """Stream a columnar scenario into fresh corpus + graph stores."""
    from repro.corpus import CorpusWriter, GraphWriter

    scenario = build_columnar_scenario(preset, seed=seed)
    minute = scenario.config.window_minutes - 1
    writer = CorpusWriter(corpus_dir)
    scenario.write_corpus(writer, at_minute=minute)
    writer.finalise(crawl_minute=minute)
    graph_writer = GraphWriter(graph_dir)
    scenario.write_graph(graph_writer, at_minute=minute)
    graph_writer.finalise(crawl_minute=minute)


def check_identity(service: AvailabilityService) -> None:
    """The warm curve must equal the batch sweep's, float for float."""
    state = service.state_for("no-rep")
    failure = service.failure("instances/by_toots")
    batch = availability_curves(state.arrays, [failure], shard_size=0)[failure.name]
    batch_curve = np.asarray([point.availability for point in batch])
    serve_curve = service.curve("no-rep", "instances/by_toots")
    assert serve_curve.shape == batch_curve.shape, (
        f"curve lengths differ: serve {serve_curve.shape} vs batch {batch_curve.shape}"
    )
    assert (serve_curve == batch_curve).all(), (
        "serve curve differs from the batch sweep"
    )


#: Verb -> share of the query stream (the served mix's relative shares).
VERB_SHARES = {"user": 0.50, "instance": 0.15, "timeline": 0.20}


def draw_queries(
    service: AvailabilityService, n: int, strategies: list[str]
) -> list[tuple[str, str, str, int]]:
    """``(verb, subject, strategy, k)`` per query, subjects skewed by toots."""
    rng = np.random.default_rng(QUERY_SEED)
    corpus = service.corpus
    authors = np.asarray(corpus.authors).astype(str)
    author_toots = np.bincount(
        np.asarray(corpus.column("author_code"), dtype=np.int64), minlength=authors.size
    )
    homes = corpus.home_toot_counts
    instances = np.array(sorted(homes), dtype=str)
    instance_toots = np.array([homes[d] for d in instances], dtype=np.float64)
    verbs = list(VERB_SHARES)
    shares = np.asarray([VERB_SHARES[v] for v in verbs])
    picked = rng.choice(len(verbs), size=n, p=shares / shares.sum())
    users = authors[rng.choice(authors.size, size=n, p=author_toots / author_toots.sum())]
    places = instances[
        rng.choice(instances.size, size=n, p=instance_toots / instance_toots.sum())
    ]
    ks = rng.integers(0, service.removal_steps + 1, size=n)
    strategy_picks = rng.integers(0, len(strategies), size=n)
    return [
        (
            verbs[picked[i]],
            str(places[i]) if verbs[picked[i]] == "instance" else str(users[i]),
            strategies[int(strategy_picks[i])],
            int(ks[i]),
        )
        for i in range(n)
    ]


def answer(service: AvailabilityService, query: tuple[str, str, str, int]) -> None:
    verb, subject, strategy, k = query
    common = {"strategy": strategy, "failure": "instances/by_toots", "k": k}
    if verb == "timeline":
        service.timeline_availability(subject, **common)
    elif verb == "instance":
        service.availability(instance=subject, **common)
    else:
        service.availability(user=subject, **common)


def run_queries(
    service: AvailabilityService, n_queries: int, strategies: list[str]
) -> dict[str, object]:
    """Timed mixed queries against the warm service, split by verb."""
    queries = draw_queries(service, WARMUP_QUERIES + n_queries, strategies)
    for query in queries[:WARMUP_QUERIES]:
        answer(service, query)
    timed = queries[WARMUP_QUERIES:]
    durations = np.empty(n_queries, dtype=np.float64)
    begin = time.perf_counter()
    for j, query in enumerate(timed):
        t0 = time.perf_counter()
        answer(service, query)
        durations[j] = time.perf_counter() - t0
    total = time.perf_counter() - begin
    verbs = np.asarray([query[0] for query in timed])
    per_verb = {}
    for verb in VERB_SHARES:
        spent = durations[verbs == verb]
        if spent.size:
            per_verb[verb] = {
                "queries": int(spent.size),
                "p50_ms": round(float(np.percentile(spent, 50) * 1000), 4),
                "p99_ms": round(float(np.percentile(spent, 99) * 1000), 4),
                "qps": round(spent.size / float(spent.sum()), 4),
            }
    return {"verbs": per_verb, "qps": round(n_queries / total, 4),
            "total_seconds": round(total, 4)}


def run_gates(
    preset: str,
    corpus_dir: Path,
    graph_dir: Path,
    n_queries: int,
    relaxed: bool,
) -> dict[str, object]:
    collected = not (corpus_dir / "manifest.json").exists()
    if collected:
        t0 = time.perf_counter()
        build_stores(preset, corpus_dir, graph_dir)
        collect_seconds = time.perf_counter() - t0
    else:
        collect_seconds = 0.0

    t0 = time.perf_counter()
    service = AvailabilityService(corpus_dir, graph_dir, mmap=True)
    strategies = ["no-rep", "s-rep"]
    service.warm(strategies)
    build_seconds = time.perf_counter() - t0

    check_identity(service)
    measured = run_queries(service, n_queries, strategies)

    cores = os.cpu_count() or 1
    hard = preset == "large" and cores >= 4 and not relaxed
    gates = {
        "p50_ms": HARD_P50_MS if hard else RELAXED_P50_MS,
        "p99_ms": HARD_P99_MS if hard else RELAXED_P99_MS,
        "min_qps": HARD_MIN_QPS if hard else RELAXED_MIN_QPS,
    }
    return {
        "preset": preset,
        "n_toots": service.corpus.n_toots,
        "n_queries": n_queries,
        "identity_batch_sweep": True,
        "collect_seconds": round(collect_seconds, 3),
        "service_build_seconds": round(build_seconds, 3),
        "hard_gates": hard,
        **measured,
        "gate_p50_ms": gates["p50_ms"],
        "gate_p99_ms": gates["p99_ms"],
        "gate_min_qps": gates["min_qps"],
    }


def _assert_gates(measured: dict[str, object]) -> None:
    for verb, stats in measured["verbs"].items():
        assert stats["p50_ms"] <= measured["gate_p50_ms"], (
            f"{verb}: p50 {stats['p50_ms']:.2f} ms exceeds {measured['gate_p50_ms']} ms"
        )
        assert stats["p99_ms"] <= measured["gate_p99_ms"], (
            f"{verb}: p99 {stats['p99_ms']:.2f} ms exceeds {measured['gate_p99_ms']} ms"
        )
        assert stats["qps"] >= measured["gate_min_qps"], (
            f"{verb}: {stats['qps']:.0f} qps under the {measured['gate_min_qps']} floor"
        )
    assert measured["qps"] >= measured["gate_min_qps"], (
        f"mixed stream: {measured['qps']:.0f} qps under the {measured['gate_min_qps']} floor"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="large")
    parser.add_argument("--corpus", default=None, metavar="DIR")
    parser.add_argument("--graph", default=None, metavar="DIR")
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    parser.add_argument(
        "--relaxed", action="store_true",
        help="gate at the relaxed thresholds regardless of preset/cores",
    )
    args = parser.parse_args()

    scratch = None
    if args.corpus is None or args.graph is None:
        scratch = tempfile.TemporaryDirectory(prefix="bench-serve-")
    corpus_dir = Path(args.corpus) if args.corpus else Path(scratch.name) / "corpus"
    graph_dir = Path(args.graph) if args.graph else Path(scratch.name) / "graph"
    try:
        measured = run_gates(
            args.preset, corpus_dir, graph_dir, args.queries, args.relaxed
        )
    finally:
        if scratch is not None:
            scratch.cleanup()

    mode = "hard" if measured["hard_gates"] else "relaxed"
    print(f"serve latency gates: {measured['n_toots']:,} toots "
          f"('{measured['preset']}' preset), {measured['n_queries']:,} queries, "
          f"{mode} thresholds")
    print("  identity            : warm curve == batch sweep (bit-identical)")
    print(f"  one-time build      : collect {measured['collect_seconds']}s, "
          f"service {measured['service_build_seconds']}s")
    print(f"  gates               : p50 <= {measured['gate_p50_ms']} ms and "
          f"p99 <= {measured['gate_p99_ms']} ms per verb, >= {measured['gate_min_qps']} qps "
          "per verb and mixed")
    for verb, stats in measured["verbs"].items():
        print(f"  {verb:<19} : {stats['queries']:>5} queries, p50 {stats['p50_ms']:.2f} ms, "
              f"p99 {stats['p99_ms']:.2f} ms, {stats['qps']:,.0f} qps")
    print(f"  mixed stream        : {measured['qps']:,.0f} qps")
    _assert_gates(measured)

    try:
        from benchmarks.perf_log import record
    except ImportError:  # run as a script: benchmarks/ itself is on sys.path
        from perf_log import record

    path = record("serve_latency", measured)
    print(f"  recorded            : {path}")


if __name__ == "__main__":
    main()

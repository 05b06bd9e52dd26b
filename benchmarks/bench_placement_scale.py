"""Vectorised vs legacy placement construction at 100k toots (the PR 2 gate).

After PR 1 the availability curves became batched reductions, leaving
placement *construction* as the Figs. 15-16 bottleneck: the legacy
``_random_replication_python`` loop issues one ``rng.choice`` per toot
(~1s unweighted / ~5s weighted at this scale), while the vectorised
builder draws every toot in one chunked pass — a lazy Gumbel top-k
race of ``k + 5`` categorical rounds per row, kept as drawn where the
first k rounds are distinct, with weighted rounds mapped through a
guide table and unresolved rows continued by dense Gumbel keys
(:func:`repro.engine.placement._batch_distinct_draws`).  This benchmark
builds 100,000-toot random placements both ways (weighted and
unweighted) and asserts the vectorised builder is at least 10× faster
for each variant.

The two sides cannot be compared toot-by-toot (the batched draw consumes
the RNG stream in a different order), so the benchmark cross-checks the
replica-count distribution instead; the full statistical suite lives in
``tests/engine/test_placement.py``.  It also gates exactness: the same
build with the draw kernel swapped for its O(k²) reference
(``tests/reference/draws.py``) must give identical replica arrays.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_placement_scale.py

or through the harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_placement_scale.py --benchmark-only -s
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.core.replication import _random_replication_python, random_replication
from repro.corpus import CorpusWriter
from repro.crawler.toot_crawler import TootRecord
from repro.datasets.toots import TootsDataset
from repro.engine import placement

try:
    from tests.reference.draws import batch_distinct_draws
except ImportError:  # run as a script: the repository root is not on sys.path
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.reference.draws import batch_distinct_draws

N_TOOTS = 100_000
N_DOMAINS = 400
N_REPLICAS = 3
SEED = 0
MIN_SPEEDUP = 10.0


def synthetic_toots(n_toots: int = N_TOOTS, n_domains: int = N_DOMAINS, seed: int = 1):
    """A 100k-toot corpus with a Zipf-like home-instance skew.

    Each toot is observed on its home instance only.  The corpus lives
    in a temporary directory for as long as the returned dataset; its
    records are materialised up front, so the legacy loop's timings
    exclude reading them.
    """
    rng = np.random.default_rng(seed)
    domains = [f"i{j}.example" for j in range(n_domains)]
    popularity = 1.0 / np.arange(1, n_domains + 1)
    popularity /= popularity.sum()
    homes = rng.choice(n_domains, size=n_toots, p=popularity)
    observed: dict[str, list[TootRecord]] = {}
    for t in range(n_toots):
        home = domains[homes[t]]
        observed.setdefault(home, []).append(
            TootRecord(
                toot_id=t,
                url=f"https://{home}/toots/{t}",
                account=f"u{homes[t]}@{home}",
                author_domain=home,
                collected_from=home,
                created_at=t,
            )
        )
    writer = CorpusWriter(tempfile.mkdtemp(prefix="bench-placement-"))
    for domain, records in observed.items():
        writer.add_records(domain, records)
        writer.end_instance(domain)
    store = writer.finalise()
    store.delete_when_collected()
    toots = TootsDataset.from_corpus(store)
    toots.records()
    weights = {domain: float(w) for domain, w in zip(domains, popularity)}
    return toots, domains, weights


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def compare(toots, domains, weights, rounds: int = 2):
    """Best-of-``rounds`` build time per side, measured in alternation.

    Alternating legacy/vectorised rounds and keeping each side's minimum
    makes the ratio robust to CPU-steal windows on shared machines.
    """
    results = {}
    for label, kwargs in (("unweighted", {}), ("weighted", {"weights": weights})):
        legacy_time = fast_time = float("inf")
        legacy = fast = None
        for _ in range(rounds):
            legacy, elapsed = _timed(
                _random_replication_python, toots, domains, N_REPLICAS, seed=SEED, **kwargs
            )
            legacy_time = min(legacy_time, elapsed)
            fast, elapsed = _timed(
                random_replication, toots, domains, N_REPLICAS, seed=SEED, **kwargs
            )
            fast_time = min(fast_time, elapsed)
        # same replica-count distribution (bit-identity is impossible: the
        # batched draw consumes the RNG stream in a different order)
        fast_counts = np.asarray(fast.replica_counts())
        legacy_counts = np.asarray(legacy.replica_counts())
        assert fast_counts.min() >= N_REPLICAS - 1 and fast_counts.max() <= N_REPLICAS
        assert abs(fast_counts.mean() - legacy_counts.mean()) < 0.01
        results[label] = (legacy_time, fast_time)
    return results


def matches_reference(toots, domains, weights) -> dict[str, bool]:
    """Whether each variant's build equals the build with the reference kernel."""
    matches = {}
    for label, kwargs in (("unweighted", {}), ("weighted", {"weights": weights})):
        fast = random_replication(toots, domains, N_REPLICAS, seed=SEED, **kwargs).arrays
        with mock.patch.object(placement, "_batch_distinct_draws", batch_distinct_draws):
            reference = random_replication(
                toots, domains, N_REPLICAS, seed=SEED, **kwargs
            ).arrays
        matches[label] = np.array_equal(
            fast.replica_indices, reference.replica_indices
        ) and np.array_equal(fast.replica_indptr, reference.replica_indptr)
    return matches


def run_comparison(n_toots: int = N_TOOTS):
    toots, domains, weights = synthetic_toots(n_toots=n_toots)
    return compare(toots, domains, weights), matches_reference(toots, domains, weights)


def test_placement_scale_speedup(benchmark):
    toots, domains, weights = synthetic_toots()

    benchmark.pedantic(
        random_replication,
        args=(toots, domains, N_REPLICAS),
        kwargs={"seed": SEED, "weights": weights},
        rounds=1,
        iterations=1,
    )
    results = compare(toots, domains, weights)
    matches = matches_reference(toots, domains, weights)

    from benchmarks.conftest import emit
    from repro.reporting import format_table

    rows = []
    for label, (legacy_time, fast_time) in results.items():
        rows.append([f"legacy loop ({label})", round(legacy_time, 3), "1.0x"])
        rows.append(
            [
                f"vectorised ({label})",
                round(fast_time, 3),
                f"{legacy_time / fast_time:.1f}x",
            ]
        )
    emit(
        f"Placement construction — {N_TOOTS:,} toots, {N_DOMAINS} candidate domains, "
        f"{N_REPLICAS} replicas",
        format_table(["builder", "seconds", "speedup"], rows),
    )
    for label, (legacy_time, fast_time) in results.items():
        assert legacy_time / fast_time >= MIN_SPEEDUP, label
    assert all(matches.values()), matches


def main() -> None:
    results, matches = run_comparison()
    print(
        f"random_replication construction: {N_TOOTS:,} toots x {N_DOMAINS} domains, "
        f"{N_REPLICAS} replicas"
    )
    payload: dict[str, object] = {
        "n_toots": N_TOOTS,
        "n_domains": N_DOMAINS,
        "n_replicas": N_REPLICAS,
        "min_speedup": MIN_SPEEDUP,
    }
    for label, (legacy_time, fast_time) in results.items():
        speedup = legacy_time / fast_time
        print(f"  [{label}]")
        print(f"    legacy python loop  : {legacy_time:8.3f}s")
        print(f"    vectorised builder  : {fast_time:8.3f}s")
        print(f"    speedup             : {speedup:8.1f}x (required >= {MIN_SPEEDUP:.0f}x)")
        payload[f"legacy_seconds[{label}]"] = round(legacy_time, 4)
        payload[f"vectorised_seconds[{label}]"] = round(fast_time, 4)
        payload[f"speedup[{label}]"] = round(speedup, 2)
        payload[f"matches_reference[{label}]"] = matches[label]
        print(f"    equals reference    : {matches[label]}")
        assert speedup >= MIN_SPEEDUP, f"{label} placement speedup regressed below 10x"
        assert matches[label], f"{label} draw differs from the reference kernel"

    try:
        from benchmarks.perf_log import record
    except ImportError:  # run as a script: benchmarks/ itself is on sys.path
        from perf_log import record

    path = record("placement_scale", payload)
    print(f"  recorded            : {path}")


if __name__ == "__main__":
    main()

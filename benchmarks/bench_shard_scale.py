"""Streaming fold vs the monolithic pipeline at 1M toots.

The monolithic pipeline — kept in ``tests/reference/incidence.py`` —
materialises the full toot×instance CSR incidence matrix plus a dense
``(n_toots, k)`` kill matrix, so a 1M-toot × 20-schedule sweep costs
hundreds of megabytes of working memory; the engine
(:mod:`repro.engine.sharding`) folds the placement arrays toot range by
toot range through the kill kernel into additive loss tables, holding
one range's kill vector at a time and assembling nothing.  This
benchmark drives both over the same synthetic 1M-toot placement backend
and gates two claims:

1. **identity** — the streamed curves are bit-identical to the monolithic
   pipeline's, ragged tail range included;
2. **memory** — peak traced allocation (incidence + kill working set)
   drops by at least 5×.

It also records the streamed sweep's best-of-three wall time.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_shard_scale.py

or through the harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_shard_scale.py --benchmark-only -s
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.engine import (
    ASRemoval,
    InstanceRemoval,
    PlacementArrays,
    ShardedIncidence,
    availability_from_losses,
    losses_per_step,
    streaming_losses,
)

try:
    from tests.reference.incidence import TootIncidence, kill_steps_batch
except ImportError:  # run as a script: the repository root is not on sys.path
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.reference.incidence import TootIncidence, kill_steps_batch

N_TOOTS = 1_000_000
N_DOMAINS = 400
MAX_REPLICAS = 6
SHARD_SIZE = 100_000
INSTANCE_STEPS = N_DOMAINS
AS_STEPS = 40
N_INSTANCE_RANKINGS = 16
N_AS_RANKINGS = 4
MIN_MEMORY_RATIO = 5.0


def synthetic_arrays(
    n_toots: int = N_TOOTS, n_domains: int = N_DOMAINS, seed: int = 0
) -> tuple[PlacementArrays, list[str], dict[str, int]]:
    """A 1M-toot integer-coded placement backend, built without any loop.

    Homes follow a Zipf-like skew; replica counts are geometric with a
    ragged per-toot tail.  Replicas are drawn as *consecutive offsets
    from a random start* (mod ``n_domains - 1``), which guarantees the
    backend invariants — distinct within a row, never the home — with
    pure array arithmetic at any corpus size.
    """
    rng = np.random.default_rng(seed)
    domains = [f"i{j}.example" for j in range(n_domains)]
    popularity = 1.0 / np.arange(1, n_domains + 1)
    popularity /= popularity.sum()
    home = rng.choice(n_domains, size=n_toots, p=popularity).astype(np.int64)
    counts = np.minimum(rng.geometric(0.5, size=n_toots) - 1, MAX_REPLICAS)
    indptr = np.zeros(n_toots + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    row_ids = np.repeat(np.arange(n_toots), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(indptr[:-1], counts)
    start = rng.integers(0, n_domains - 1, size=n_toots)
    offsets = (np.repeat(start, counts) + within) % (n_domains - 1)
    replicas = (home[row_ids] + 1 + offsets) % n_domains
    arrays = PlacementArrays(
        strategy="synthetic-sharded",
        toot_urls=tuple(f"t{t}" for t in range(n_toots)),
        domains=tuple(domains),
        home=home,
        replica_indices=replicas,
        replica_indptr=indptr,
    )
    asn_of = {
        domain: int(asn) for domain, asn in zip(domains, rng.integers(1, 40, size=n_domains))
    }
    return arrays, domains, asn_of


def build_failures(domains: list[str], asn_of: dict[str, int], seed: int = 1):
    """Twenty removal schedules: sixteen instance rankings, four AS rankings."""
    rng = np.random.default_rng(seed)
    failures = [InstanceRemoval(domains, steps=INSTANCE_STEPS, name="by-popularity")]
    for i in range(N_INSTANCE_RANKINGS - 1):
        permuted = [domains[j] for j in rng.permutation(len(domains))]
        failures.append(InstanceRemoval(permuted, steps=INSTANCE_STEPS, name=f"ranking-{i}"))
    as_ranking = sorted(set(asn_of.values()))[:AS_STEPS]
    orderings = [as_ranking, as_ranking[::-1]] + [
        [as_ranking[j] for j in rng.permutation(len(as_ranking))]
        for _ in range(N_AS_RANKINGS - 2)
    ]
    for i, ordering in enumerate(orderings):
        failures.append(ASRemoval(asn_of, ordering, steps=AS_STEPS, name=f"as-{i}"))
    return failures


def removal_inputs(sharded: ShardedIncidence, failures) -> tuple[np.ndarray, np.ndarray]:
    steps = np.asarray([f.effective_steps() for f in failures], dtype=np.int64)
    removal_matrix = np.column_stack(
        [
            sharded.removal_vector(failure.removal_index(), int(steps[j]))
            for j, failure in enumerate(failures)
        ]
    )
    return removal_matrix, steps


def run_monolithic(arrays, removal_matrix, steps) -> list[np.ndarray]:
    """The seed-era pipeline: full incidence matrix + full kill matrix."""
    incidence = TootIncidence.from_arrays(arrays)
    kill = kill_steps_batch(incidence.matrix, removal_matrix)
    total = incidence.n_toots
    return [
        availability_from_losses(losses_per_step(kill[:, j], int(steps[j])), total)
        for j in range(steps.size)
    ]


def run_sharded(
    arrays, removal_matrix, steps, shard_size: int = SHARD_SIZE
) -> list[np.ndarray]:
    """The engine's fold: kill-kernel loss tables summed over toot ranges."""
    sharded = ShardedIncidence.from_arrays(arrays, shard_size)
    losses = streaming_losses(sharded, removal_matrix, steps)
    return [
        availability_from_losses(losses[j, : int(steps[j]) + 1], arrays.n_toots)
        for j in range(steps.size)
    ]


def _traced_peak(fn, *args, **kwargs):
    """(result, peak traced bytes) for one call, gc-fenced on both sides."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gc.collect()
    return result, peak


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def compare(arrays, removal_matrix, steps, rounds: int = 3):
    """Identity + memory measurements, plus the best-of-``rounds`` sweep time."""
    monolithic_curves, monolithic_peak = _traced_peak(
        run_monolithic, arrays, removal_matrix, steps
    )
    sharded_curves, sharded_peak = _traced_peak(
        run_sharded, arrays, removal_matrix, steps
    )
    for j, (expected, got) in enumerate(zip(monolithic_curves, sharded_curves)):
        assert np.array_equal(expected, got), f"curve divergence on schedule {j}"

    sharded_time = min(
        _timed(run_sharded, arrays, removal_matrix, steps)[1] for _ in range(rounds)
    )
    return {
        "monolithic_peak_bytes": int(monolithic_peak),
        "sharded_peak_bytes": int(sharded_peak),
        "memory_ratio": monolithic_peak / sharded_peak,
        "sharded_seconds": sharded_time,
    }


def _assert_gates(measured: dict) -> None:
    assert measured["memory_ratio"] >= MIN_MEMORY_RATIO, (
        f"sharded peak memory gate: {measured['memory_ratio']:.1f}x < "
        f"{MIN_MEMORY_RATIO:.0f}x required"
    )


def run_comparison(n_toots: int = N_TOOTS):
    arrays, domains, asn_of = synthetic_arrays(n_toots=n_toots)
    failures = build_failures(domains, asn_of)
    sharded = ShardedIncidence.from_arrays(arrays, SHARD_SIZE)
    removal_matrix, steps = removal_inputs(sharded, failures)
    return compare(arrays, removal_matrix, steps), len(failures)


def test_shard_scale_gates(benchmark):
    arrays, domains, asn_of = synthetic_arrays()
    failures = build_failures(domains, asn_of)
    sharded = ShardedIncidence.from_arrays(arrays, SHARD_SIZE)
    removal_matrix, steps = removal_inputs(sharded, failures)

    benchmark.pedantic(
        run_sharded, args=(arrays, removal_matrix, steps), rounds=1, iterations=1
    )
    measured = compare(arrays, removal_matrix, steps)

    from benchmarks.conftest import emit
    from repro.reporting import format_table

    emit(
        f"Sharded streaming — {N_TOOTS:,} toots, {len(failures)} schedules, "
        f"shard={SHARD_SIZE:,}",
        format_table(
            ["pipeline", "peak MiB", "seconds"],
            [
                ["monolithic (full incidence + kill)",
                 round(measured["monolithic_peak_bytes"] / 2**20, 1), "-"],
                ["streaming fold (kill kernel)",
                 round(measured["sharded_peak_bytes"] / 2**20, 1),
                 round(measured["sharded_seconds"], 3)],
            ],
        ),
    )
    _assert_gates(measured)


def main() -> None:
    measured, n_failures = run_comparison()
    print(f"sharded streaming sweep: {N_TOOTS:,} toots x {n_failures} schedules "
          f"(shard={SHARD_SIZE:,})")
    print("  curves: sharded == monolithic bit-identically")
    print(f"  monolithic peak     : {measured['monolithic_peak_bytes'] / 2**20:8.1f} MiB")
    print(f"  sharded peak        : {measured['sharded_peak_bytes'] / 2**20:8.1f} MiB")
    print(f"  memory reduction    : {measured['memory_ratio']:8.1f}x "
          f"(required >= {MIN_MEMORY_RATIO:.0f}x)")
    print(f"  sharded sweep       : {measured['sharded_seconds']:.3f}s (best of 3)")
    _assert_gates(measured)

    try:
        from benchmarks.perf_log import record
    except ImportError:  # run as a script: benchmarks/ itself is on sys.path
        from perf_log import record

    path = record(
        "shard_scale",
        {
            "n_toots": N_TOOTS,
            "n_schedules": n_failures,
            "shard_size": SHARD_SIZE,
            "min_memory_ratio": MIN_MEMORY_RATIO,
            **{key: round(value, 4) if isinstance(value, float) else value
               for key, value in measured.items()},
        },
    )
    print(f"  recorded            : {path}")


if __name__ == "__main__":
    main()

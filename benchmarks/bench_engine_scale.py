"""Engine vs legacy loop on a 100k-toot availability sweep (the tentpole claim).

The legacy per-toot loop (``availability_curve_python`` in
``tests/reference/replication.py``) walks every toot's holder set in
Python once *per removal schedule*; the engine folds every schedule with
one kill kernel over the integer-coded placement arrays
(:mod:`repro.engine.kernels`).  This benchmark runs a 20-schedule sweep
(instance and AS removal schedules under several rankings) over 100,000
synthetic toots and asserts the engine is at least 10× faster
end-to-end, with bit-identical curves.  The legacy side reads the
placements as a dict of holder sets, built once outside the timing.
The companion gate for placement *construction* (the vectorised builders
vs the per-toot ``rng.choice`` loop) lives in
``benchmarks/bench_placement_scale.py``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_scale.py

or through the harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_scale.py --benchmark-only -s
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.engine import ASRemoval, InstanceRemoval, PlacementArrays, availability_curves

try:
    from tests.reference.replication import as_dict_map, availability_curve_python
except ImportError:  # run as a script: the repository root is not on sys.path
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.reference.replication import as_dict_map, availability_curve_python

N_TOOTS = 100_000
N_DOMAINS = 400
MAX_REPLICAS = 30
REPLICA_GEOMETRIC_P = 0.08  # heavy replica tail, like subscription replication
INSTANCE_STEPS = N_DOMAINS  # the full decay curve: every instance eventually fails
AS_STEPS = 40
N_INSTANCE_RANKINGS = 16
MIN_SPEEDUP = 10.0


def synthetic_placements(
    n_toots: int = N_TOOTS, n_domains: int = N_DOMAINS, seed: int = 0
) -> tuple[PlacementArrays, list[str], dict[str, int]]:
    """A 100k-toot placement with a Zipf-like popularity skew.

    Built as :class:`PlacementArrays` without any loop, the way
    ``bench_shard_scale.synthetic_arrays`` builds them: replicas are
    consecutive offsets from a random start (mod ``n_domains - 1``),
    so they are distinct within a row and never the home.
    """
    rng = np.random.default_rng(seed)
    domains = [f"i{j}.example" for j in range(n_domains)]
    popularity = 1.0 / np.arange(1, n_domains + 1)
    popularity /= popularity.sum()
    home = rng.choice(n_domains, size=n_toots, p=popularity).astype(np.int64)
    counts = np.minimum(rng.geometric(REPLICA_GEOMETRIC_P, size=n_toots), MAX_REPLICAS)
    indptr = np.zeros(n_toots + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    row_ids = np.repeat(np.arange(n_toots), counts)
    within = np.arange(int(indptr[-1]), dtype=np.int64) - np.repeat(indptr[:-1], counts)
    start = rng.integers(0, n_domains - 1, size=n_toots)
    offsets = (np.repeat(start, counts) + within) % (n_domains - 1)
    arrays = PlacementArrays(
        strategy="synthetic",
        toot_urls=tuple(
            f"https://{domains[code]}/toots/{t}" for t, code in enumerate(home.tolist())
        ),
        domains=tuple(domains),
        home=home,
        replica_indices=(home[row_ids] + 1 + offsets) % n_domains,
        replica_indptr=indptr,
    )
    asn_of = {domain: int(asn) for domain, asn in zip(domains, rng.integers(1, 40, size=n_domains))}
    return arrays, domains, asn_of


def build_failures(domains: list[str], asn_of: dict[str, int], seed: int = 1):
    """Twenty removal schedules: sixteen instance rankings, four AS rankings."""
    rng = np.random.default_rng(seed)
    failures = [
        InstanceRemoval(domains, steps=INSTANCE_STEPS, name="by-popularity")
    ]
    for i in range(N_INSTANCE_RANKINGS - 1):
        permuted = [domains[j] for j in rng.permutation(len(domains))]
        failures.append(
            InstanceRemoval(permuted, steps=INSTANCE_STEPS, name=f"ranking-{i}")
        )
    as_ranking = sorted(set(asn_of.values()))[:AS_STEPS]
    failures.append(ASRemoval(asn_of, as_ranking, steps=AS_STEPS, name="as-forward"))
    failures.append(
        ASRemoval(asn_of, as_ranking[::-1], steps=AS_STEPS, name="as-reverse")
    )
    for i in range(2):
        shuffled = [as_ranking[j] for j in rng.permutation(len(as_ranking))]
        failures.append(
            ASRemoval(asn_of, shuffled, steps=AS_STEPS, name=f"as-shuffle-{i}")
        )
    return failures


def run_legacy(legacy_placements, failures):
    """The per-toot loop over the dict-of-holder-sets twin of the map."""
    return {
        failure.name: availability_curve_python(
            legacy_placements, failure.removal_index(), failure.effective_steps()
        )
        for failure in failures
    }


def run_engine(placements, failures):
    return availability_curves(placements, failures)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def compare(placements, failures, rounds: int = 3):
    """Best-of-``rounds`` wall time per side, measured in alternation.

    Alternating legacy/engine rounds and keeping each side's minimum
    makes the ratio robust to CPU-steal windows on shared machines: a
    slow patch must cover *every* round of one side to skew the result.
    """
    legacy_placements = as_dict_map(placements)
    legacy_time = engine_time = float("inf")
    legacy_curves = engine_curves = None
    for _ in range(rounds):
        legacy_curves, elapsed = _timed(run_legacy, legacy_placements, failures)
        legacy_time = min(legacy_time, elapsed)
        engine_curves, elapsed = _timed(run_engine, placements, failures)
        engine_time = min(engine_time, elapsed)
    for name in legacy_curves:
        assert engine_curves[name] == legacy_curves[name], f"divergence on {name}"
    return legacy_time, engine_time


def run_comparison(n_toots: int = N_TOOTS):
    placements, domains, asn_of = synthetic_placements(n_toots=n_toots)
    failures = build_failures(domains, asn_of)
    legacy_time, engine_time = compare(placements, failures)
    return legacy_time, engine_time, len(failures)


def test_engine_scale_speedup(benchmark):
    placements, domains, asn_of = synthetic_placements()
    failures = build_failures(domains, asn_of)

    benchmark.pedantic(run_engine, args=(placements, failures), rounds=1, iterations=1)
    legacy_time, engine_time = compare(placements, failures)

    from benchmarks.conftest import emit
    from repro.reporting import format_table

    speedup = legacy_time / engine_time
    emit(
        f"Engine scale — {N_TOOTS:,} toots, {len(failures)} removal schedules",
        format_table(
            ["pipeline", "seconds", "speedup"],
            [
                ["legacy python loops", round(legacy_time, 3), "1.0x"],
                ["engine (kill kernel)", round(engine_time, 3), f"{speedup:.1f}x"],
            ],
        ),
    )
    # identical output, much faster (the tentpole acceptance criterion)
    assert speedup >= MIN_SPEEDUP


def main() -> None:
    legacy_time, engine_time, n_failures = run_comparison()
    speedup = legacy_time / engine_time
    print(f"availability sweep: {N_TOOTS:,} toots x {n_failures} schedules")
    print(f"  legacy python loops : {legacy_time:8.3f}s")
    print(f"  engine (kill kernel): {engine_time:8.3f}s")
    print(f"  speedup             : {speedup:8.1f}x (required >= {MIN_SPEEDUP:.0f}x)")
    assert speedup >= MIN_SPEEDUP, "engine speedup regressed below 10x"

    try:
        from benchmarks.perf_log import record
    except ImportError:  # run as a script: benchmarks/ itself is on sys.path
        from perf_log import record

    path = record(
        "engine_scale",
        {
            "n_toots": N_TOOTS,
            "n_schedules": n_failures,
            "legacy_seconds": round(legacy_time, 4),
            "engine_seconds": round(engine_time, 4),
            "speedup": round(speedup, 2),
            "min_speedup": MIN_SPEEDUP,
        },
    )
    print(f"  recorded            : {path}")


if __name__ == "__main__":
    main()

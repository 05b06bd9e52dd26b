"""Disabled observability must be (nearly) free on the engine hot path.

PR 10 threaded spans and metrics through ``availability_curves`` /
``streaming_losses`` — the innermost loops of every sweep.  The design
contract is that an *inactive* observer costs one ``obs.active()`` check
per fold plus a no-op span per sweep, which this benchmark holds to a
hard gate: the shipped, instrumented sweep with observability off must
stay within :data:`MAX_OVERHEAD_PCT` of a stripped replica of the
pre-instrumentation loop (the same removal-matrix build and serial
shard fold, with zero ``obs`` calls).

The stripped twin is the fold every sweep runs: the removal-matrix
build, then one :func:`~repro.engine.kernels.losses_per_step_batch`
kill-kernel pass per toot range of the placement arrays, summed into one
loss table.

It also proves the second half of the contract: running the same sweep
with a tracer installed and metrics enabled produces **bit-identical**
curves — instrumentation observes the computation, it never joins it.

Run standalone (CI's gate, which also records the reading)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py

or through the harness, which gates the same 100,000-toot comparison::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -s
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.engine import availability_curves
from repro.engine.kernels import availability_from_losses, losses_per_step_batch
from repro.engine.sharding import ShardedIncidence
from repro.engine.sweep import _to_points

try:
    from benchmarks.bench_engine_scale import build_failures, synthetic_placements
except ImportError:  # run as a script: benchmarks/ itself is on sys.path
    from bench_engine_scale import build_failures, synthetic_placements

N_TOOTS = 100_000
SHARD_SIZE = 10_000  # 10 shards: the per-shard check is what we are gating
ROUNDS = 5
MAX_OVERHEAD_PCT = 2.0


def plain_availability_curves(placements, failures, shard_size):
    """The pre-instrumentation sweep: same maths, zero ``obs`` calls.

    A faithful replica of ``availability_curves`` + ``streaming_losses``
    for cumulative failure models over the placement arrays — removal
    columns from the shared lookup, one serial fold over the toot
    ranges, the same additive int64 loss table, the same
    ``AvailabilityPoint`` assembly — with every observability line
    stripped.  Any timing gap between this and the shipped path is pure
    instrumentation overhead.
    """
    sharded = ShardedIncidence.from_arrays(placements, shard_size)
    lookup = sharded.lookup
    columns = []
    col_steps = []
    for failure in failures:
        steps = failure.effective_steps()
        columns.append(lookup.removal_vector(failure.removal_index(), steps)[:, None])
        col_steps.append(steps)
    removal_matrix = np.concatenate(columns, axis=1)
    steps = np.asarray(col_steps, dtype=np.int64)
    losses = np.zeros((len(col_steps), int(steps.max()) + 1), dtype=np.int64)
    for bounds in sharded.shard_bounds():
        losses += losses_per_step_batch(sharded.shard(*bounds), removal_matrix, steps)
    return {
        failure.name: _to_points(
            availability_from_losses(losses[i, : int(steps[i]) + 1], sharded.n_toots)
        )
        for i, failure in enumerate(failures)
    }


def shipped_availability_curves(placements, failures, shard_size):
    """The shipped, instrumented sweep — exactly what the pipeline runs."""
    return availability_curves(placements, failures, shard_size=shard_size)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def compare(placements, failures, rounds: int = ROUNDS):
    """Best-of-``rounds`` seconds per side, measured in alternation."""
    assert not obs.tracing_enabled() and not obs.metrics_enabled()
    plain_time = shipped_time = float("inf")
    plain_curves = shipped_curves = None
    for _ in range(rounds):
        plain_curves, elapsed = _timed(
            plain_availability_curves, placements, failures, SHARD_SIZE
        )
        plain_time = min(plain_time, elapsed)
        shipped_curves, elapsed = _timed(
            shipped_availability_curves, placements, failures, SHARD_SIZE
        )
        shipped_time = min(shipped_time, elapsed)
    for name, points in plain_curves.items():
        assert points == shipped_curves[name], f"divergence on {name}"
    return plain_time, shipped_time


def assert_enabled_is_bit_identical(placements, failures):
    """Tracer + metrics on: same curves, and the observer saw the work."""
    disabled = shipped_availability_curves(placements, failures, SHARD_SIZE)
    tracer = obs.Tracer()  # memory-only: no file I/O in the identity check
    obs.set_tracer(tracer)
    obs.enable_metrics(fresh=True)
    try:
        enabled = shipped_availability_curves(placements, failures, SHARD_SIZE)
    finally:
        obs.set_tracer(None)
        obs.disable_metrics()
    assert enabled == disabled, "instrumentation changed the curves"
    span_names = {event["name"] for event in tracer.events}
    assert "engine/streaming_losses" in span_names
    assert "engine/shard" in span_names
    return len(tracer.events)


def run_comparison(n_toots: int = N_TOOTS):
    placements, domains, asn_of = synthetic_placements(n_toots=n_toots)
    failures = build_failures(domains, asn_of)
    plain_time, shipped_time = compare(placements, failures)
    n_spans = assert_enabled_is_bit_identical(placements, failures)
    overhead_pct = 100.0 * (shipped_time - plain_time) / plain_time
    return plain_time, shipped_time, overhead_pct, n_spans, len(failures)


def check_overhead(overhead_pct: float) -> None:
    """The one gate, on the :data:`N_TOOTS` comparison."""
    assert overhead_pct <= MAX_OVERHEAD_PCT, (
        f"disabled instrumentation costs {overhead_pct:.2f}% "
        f"(gate: {MAX_OVERHEAD_PCT}%)"
    )


def test_disabled_observability_overhead():
    plain_time, shipped_time, overhead_pct, n_spans, n_failures = run_comparison()

    from benchmarks.conftest import emit
    from repro.reporting import format_table

    emit(
        f"Observability overhead — {N_TOOTS:,} toots, {n_failures} schedules",
        format_table(
            ["pipeline", "seconds", "overhead"],
            [
                ["plain fold (no obs)", round(plain_time, 4), "-"],
                ["shipped, obs off", round(shipped_time, 4), f"{overhead_pct:+.2f}%"],
                ["shipped, obs on", "-", f"bit-identical ({n_spans} spans)"],
            ],
        ),
    )
    check_overhead(overhead_pct)


def main() -> None:
    plain_time, shipped_time, overhead_pct, n_spans, n_failures = run_comparison()
    print(f"observability overhead: {N_TOOTS:,} toots x {n_failures} schedules")
    print(f"  plain fold (no obs)  : {plain_time:8.4f}s")
    print(f"  shipped, obs off     : {shipped_time:8.4f}s ({overhead_pct:+.2f}%)")
    print(f"  shipped, obs on      : bit-identical curves, {n_spans} spans recorded")
    print(f"  gate                 : <= {MAX_OVERHEAD_PCT:.1f}% disabled overhead")
    check_overhead(overhead_pct)

    try:
        from benchmarks.perf_log import record
    except ImportError:  # run as a script: benchmarks/ itself is on sys.path
        from perf_log import record

    path = record(
        "obs_overhead",
        {
            "n_toots": N_TOOTS,
            "n_schedules": n_failures,
            "plain_seconds": round(plain_time, 4),
            "instrumented_off_seconds": round(shipped_time, 4),
            # clamp: a negative reading is timing noise, not a speedup claim
            "overhead_pct": round(max(0.0, overhead_pct), 3),
            "max_overhead_pct": MAX_OVERHEAD_PCT,
            "identical_with_instrumentation": True,
            "spans_recorded": n_spans,
        },
    )
    print(f"  recorded             : {path}")


if __name__ == "__main__":
    main()

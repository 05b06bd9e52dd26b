"""The measurement loop shared by the in-process (batch) workloads.

A pass is one full set-up → collect → answer run of the workload, from
a freshly built scenario (scenarios cache derived indexes, so a reused
one would make later passes cheaper).  How many passes a run makes is
fixed by ``--seconds`` and the workload's nominal pass time
(:func:`pass_count`), never by how fast the host happens to be, so every
run of a workload does the same work.  An untraced run reports the
median of each e2e metric over its passes.  A traced run makes half its
passes untraced and half traced: the per-layer metrics come from the
traced passes only, and the difference between the two halves is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Any, Callable

import layers
from harness import E2E_UNITS, Ledger, e2e_metrics, median, note, per_layer_metrics
from tracing import Tracer, install

Pass = Callable[[Callable[..., Any], bool], dict[str, float]]


@contextlib.contextmanager
def no_span(name: str, **attrs: Any):
    yield attrs


def pass_count(seconds: float, nominal_pass_s: float) -> int:
    """Passes one run makes: ``--seconds`` over the nominal pass time, at least 1."""
    return max(1, round(seconds / nominal_pass_s))


def _loop(one_pass: Pass, span, n: int, check_first: bool) -> list[dict[str, float]]:
    passes: list[dict[str, float]] = []
    for index in range(n):
        gc.collect()
        passes.append(one_pass(span, check_first and index == 0))
        note(f"pass {index + 1}/{n}: " + " ".join(
            f"{name}={passes[-1][name]:.4f}" for name in E2E_UNITS
        ))
    return passes


def run(one_pass: Pass, n: int, trace: bool, ledger: Ledger) -> dict[str, float]:
    """Every metric of the run: e2e untraced, per-layer when traced."""
    if not trace:
        passes = _loop(one_pass, no_span, n, check_first=True)
        return e2e_metrics({name: median(p[name] for p in passes) for name in E2E_UNITS})

    plain = _loop(one_pass, no_span, max(1, n // 2), check_first=True)
    tracer = Tracer()
    restore = install(tracer, layers.PROGRAM_PATCHES)
    try:
        traced = _loop(one_pass, tracer.span, max(1, n - n // 2), check_first=False)
    finally:
        restore()
    values = layers.span_metrics([tracer], len(traced))
    for key in traced[0]:
        if key not in E2E_UNITS:
            values[key] = median(p[key] for p in traced)
    for name in E2E_UNITS:
        base = median(p[name] for p in plain)
        values[f"obs.overhead_pct.{name}"] = 100.0 * (median(p[name] for p in traced) / base - 1.0)
    values["obs.uncovered_pct"] = layers.uncovered_pct(tracer)
    print(layers.report("traced passes", tracer), flush=True)
    return per_layer_metrics(values)

"""The repository benchmark: one command per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline-small --seed 1 --seconds 35 --trace 0

``--trace 0`` measures with nothing patched and prints the end-to-end
metrics; ``--trace 1`` also runs traced passes and prints the per-layer
split with a span report.  The metric names and units are those of
``BENCHMARK.json``.  Provenance and any output-check failures print
first; the last line of stdout is always the JSON result
``{"correct", "attempted", "failed", "metrics"}``.

The workloads (why each exists is in its module's docstring):

* ``pipeline-small`` — scenario → crawl → stores → all 21 experiments;
* ``scale-medium`` — columnar collect → 69-curve sharded sweep;
* ``serve-medium`` — ``serve --warm`` in its own process under HTTP load.

Each workload measures for ``--seconds`` and runs its output checks
outside the timed phases; a false check, a failed crawl instance, a
raising runner or curve, and a non-200 HTTP answer are all failed
operations.  A run that exceeds :func:`run_timeout_s` stops as failed.
"""

from __future__ import annotations

import argparse
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("pipeline-small", "scale-medium", "serve-medium")


def run_timeout_s(seconds: float) -> int:
    """Whole-run limit, so a hung server ends the run as failed, not stalled.

    A run measures about ``seconds``; set-up, checks and a slow host get
    twice that again plus a fixed minute.
    """
    return int(60 + 3 * seconds)


class RunTimeout(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from harness import Ledger, emit, note, unit_of

    if args.workload == "pipeline-small":
        import workload_pipeline as workload
    elif args.workload == "scale-medium":
        import workload_scale as workload
    else:
        import workload_serve as workload

    ledger = Ledger()
    timeout = run_timeout_s(args.seconds)

    def on_alarm(signum, frame) -> None:
        raise RunTimeout(f"the run exceeded {timeout} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(timeout)
    try:
        metrics = workload.run(args.seed, args.seconds, bool(args.trace), ledger)
    except Exception:
        traceback.print_exc()
        ledger.check("the run completed", False)
        emit(ledger.result({}))
        return 1
    finally:
        signal.alarm(0)

    for name, ok, detail in ledger.checks:
        if not ok:
            note(f"check failed: {name} {detail}")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit_of(name)}")
    emit(ledger.result(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

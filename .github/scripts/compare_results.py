"""Fail unless two ``run --all --json`` result directories hold the same results.

Every availability curve is a fold of additive integer loss counts over
toot ranges, so the range split (``--shard-size``) must not move a
single number.  This compares each ``<experiment>.json`` of a candidate
run with the baseline run's, apart from the ``metadata`` block (which
stamps the split and the elapsed time), and exits 1 naming every file
that differs or is missing on either side.

Usage::

    python .github/scripts/compare_results.py BASELINE_DIR CANDIDATE_DIR [--expect 21]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def results(directory: Path) -> dict[str, dict]:
    """Every result file in ``directory``, keyed by name, without its metadata."""
    loaded = {}
    for path in sorted(directory.glob("*.json")):
        payload = json.loads(path.read_text())
        payload.pop("metadata", None)
        loaded[path.name] = payload
    return loaded


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument(
        "--expect", type=int, default=None, help="the number of result files each side must hold"
    )
    args = parser.parse_args(argv)
    baseline, candidate = results(args.baseline), results(args.candidate)
    problems = [
        f"{name}: missing from {args.candidate}" for name in sorted(baseline.keys() - candidate.keys())
    ] + [
        f"{name}: missing from {args.baseline}" for name in sorted(candidate.keys() - baseline.keys())
    ] + [
        f"{name}: results differ"
        for name in sorted(baseline.keys() & candidate.keys())
        if baseline[name] != candidate[name]
    ]
    if args.expect is not None and len(baseline) != args.expect:
        problems.append(f"{args.baseline} holds {len(baseline)} results, expected {args.expect}")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"{len(candidate)} results in {args.candidate} equal {args.baseline} apart from metadata")
    return 0


if __name__ == "__main__":
    sys.exit(main())

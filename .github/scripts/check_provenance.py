"""Fail unless every perfbench smoke log matches the committed snapshot.

Each workload of ``perfbench/run.py`` prints one ``{"provenance": ...}``
line naming the corpus and graph stores it built.  Their content
digests and row counts are fixed by the workloads' dataset seed, not by
``--seed``, so a change that moves one has changed what collect writes.
A traced run (``--trace 1``) ends with a JSON line of per-layer
metrics; the snapshot's ``counts`` are the ones that are exact work
counts at the smoke run's ``--seed 1 --seconds 5`` (requests crawled,
column reads, replicas placed, ...), so a change that moves one has
changed how much work a layer does.  This reads
``perfbench-<workload>.log`` in LOG_DIR for every workload in the
snapshot, compares each snapshot field with the log's provenance line
and each count with the log's last line, and exits 1 naming the
workload and field of every difference, and every log, provenance line
or metric that is missing.

Usage::

    python .github/scripts/check_provenance.py SNAPSHOT LOG_DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def provenance(log: Path) -> dict | None:
    """The last provenance line of a run log, or None if it has none."""
    found = None
    for line in log.read_text().splitlines():
        if line.startswith('{"provenance"'):
            found = json.loads(line)["provenance"]
    return found


def metrics(log: Path) -> dict:
    """``{name: value}`` from the run's last line (empty if it is no JSON)."""
    lines = log.read_text().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}
    return {name: metric["value"] for name, metric in last.get("metrics", {}).items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("snapshot", type=Path)
    parser.add_argument("log_dir", type=Path)
    args = parser.parse_args(argv)
    snapshot = json.loads(args.snapshot.read_text())
    problems = []
    for workload, expected in sorted(snapshot.items()):
        log = args.log_dir / f"perfbench-{workload}.log"
        found = provenance(log) if log.is_file() else None
        if found is None:
            problems.append(f"{workload}: no provenance line in {log}")
            continue
        expected = dict(expected)
        counts = expected.pop("counts", {})
        problems += [
            f"{workload}: {field} is {found.get(field)!r}, the snapshot holds {value!r}"
            for field, value in sorted(expected.items())
            if found.get(field) != value
        ]
        measured = metrics(log)
        problems += [
            f"{workload}: count {name} is {measured.get(name)!r}, the snapshot holds {value!r}"
            for name, value in sorted(counts.items())
            if measured.get(name) != value
        ]
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"{len(snapshot)} workloads' stores and work counts equal {args.snapshot}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

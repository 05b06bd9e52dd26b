"""Fail unless every perfbench smoke log's stores match the committed snapshot.

Each workload of ``perfbench/run.py`` prints one ``{"provenance": ...}``
line naming the corpus and graph stores it built.  Their content
digests and row counts are fixed by the workloads' dataset seed, not by
``--seed``, so a change that moves one has changed what collect writes.
This reads ``perfbench-<workload>.log`` in LOG_DIR for every workload in
the snapshot, compares each snapshot field with the log's provenance
line, and exits 1 naming the workload and field of every difference,
and every log or provenance line that is missing.

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
        problems += [
            f"{workload}: {field} is {found.get(field)!r}, the snapshot holds {value!r}"
            for field, value in sorted(expected.items())
            if found.get(field) != value
        ]
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"{len(snapshot)} workloads' stores equal {args.snapshot}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""What every workload shares: the run ledger, RSS scoping, provenance.

The metric names, units and order are read from ``BENCHMARK.json``.
The e2e metrics every workload reports (every run prints all of them,
so their meaning is common to the three workloads):

* ``setup_s`` — one-time set-up users pay on every run of the command;
* ``collect_s`` — building the corpus and graph stores;
* ``answer_s`` — from built stores to every answer the workload asks for;
* ``peak_rss_mib`` — high-water RSS of the process that runs the program.
"""

from __future__ import annotations

import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

ROOT = Path(__file__).resolve().parent.parent


def _units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


#: name -> unit, in ``BENCHMARK.json`` order
E2E_UNITS = _units("end_to_end")
PER_LAYER_UNITS = _units("per_layer")

_HWM = re.compile(r"^VmHWM:\s+(\d+)\s+kB", re.MULTILINE)


# -- memory -----------------------------------------------------------------------


def reset_peak_rss() -> None:
    """Start a new high-water window for this process (``clear_refs`` 5)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mib(pid: int | str = "self") -> float:
    """``VmHWM`` of ``pid`` (this process by default), in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    match = _HWM.search(status)
    if match is None:
        raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
    return int(match.group(1)) / 1024.0


# -- statistics -------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


# -- the run ledger ---------------------------------------------------------------


@dataclass
class Ledger:
    """Operations attempted and failed, and the output checks of one run."""

    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """An output check is one operation; a false one fails the run."""
        self.checks.append((name, bool(ok), detail))
        self.ops(1, 0 if ok else 1)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and self.failed == 0

    def result(self, metrics: dict[str, float]) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit_of(name)}
                for name, value in metrics.items()
            },
        }


def unit_of(name: str) -> str:
    return E2E_UNITS[name] if name in E2E_UNITS else PER_LAYER_UNITS[name]


def e2e_metrics(values: dict[str, float]) -> dict[str, float]:
    """Every e2e metric, in ``BENCHMARK.json`` order; none may be missing."""
    missing = set(E2E_UNITS) - set(values)
    if missing:
        raise KeyError(f"e2e metrics not measured: {sorted(missing)}")
    return {name: values[name] for name in E2E_UNITS}


def per_layer_metrics(values: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, in ``BENCHMARK.json`` order.

    A layer that does not run in a workload reads 0; a name that is not
    in ``BENCHMARK.json`` is an error, so the two lists cannot drift.
    """
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"metrics outside BENCHMARK.json's per_layer: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER_UNITS}


# -- inputs -----------------------------------------------------------------------


class WorkDir:
    """A scratch directory inside the checkout, removed when the run ends."""

    def __init__(self, label: str) -> None:
        self.path = ROOT / ".perfbench_work" / f"{label}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._n = 0

    def fresh(self, name: str) -> Path:
        self._n += 1
        path = self.path / f"{name}-{self._n}"
        path.mkdir()
        return path

    def drop(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def collect_columnar(scenario, directory: Path, span, shard_size: int | None = None):
    """The ``collect --columnar`` path: both stores written and finalised.

    Returns ``(seconds, peak RSS MiB of the phase, corpus, graph)``;
    ``shard_size`` None keeps the writer's default.
    """
    from repro.corpus import CorpusWriter, GraphWriter

    minute = scenario.config.window_minutes - 1
    options = {} if shard_size is None else {"shard_size": shard_size}
    reset_peak_rss()
    started = time.perf_counter()
    with span("phase.collect"):
        writer = CorpusWriter(directory / "corpus", **options)
        scenario.write_corpus(writer, at_minute=minute)
        corpus = writer.finalise(crawl_minute=minute)
        graph_writer = GraphWriter(directory / "graph")
        scenario.write_graph(graph_writer, at_minute=minute)
        graph = graph_writer.finalise(crawl_minute=minute)
    return time.perf_counter() - started, peak_rss_mib(), corpus, graph


def provenance(
    *, workload: str, seed: int, preset: str, dataset_seed: int, corpus, graph
) -> dict[str, Any]:
    """Which inputs and which machine produced this run's numbers."""
    import numpy

    git = "unknown"  # a checkout exported without .git has no history
    if (ROOT / ".git").exists():
        try:
            described = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            )
            if described.returncode == 0:
                git = described.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "preset": preset,
        "dataset_seed": dataset_seed,
        "toots": corpus.n_toots,
        "observations": corpus.n_observations,
        "edges": graph.n_edges,
        "corpus_digest": corpus.content_digest(),
        "graph_digest": graph.content_digest(),
        "git_describe": git,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def emit(line: dict[str, Any]) -> None:
    print(json.dumps(line, sort_keys=True), flush=True)


def note(text: str) -> None:
    print(text, file=sys.stderr, flush=True)

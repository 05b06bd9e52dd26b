"""Counters, gauges, and log-scale histograms with Prometheus export.

The registry is built for instrumented hot loops: counter increments and
histogram observations touch only a per-thread shard (a plain dict the
owning thread mutates without taking any lock — CPython dict operations
are atomic under the GIL), so threads never contend on the write path.
Shards are registered in a central list the first time a thread records
anything, and **merged on read**: after writer threads are joined, a
merge is exact to the last increment.  The shards of finished threads
are folded into one retired shard when the list has doubled, so a
process that starts a thread per task (a server with a thread per
connection) keeps a bounded list.  Gauges are last-write-wins and go
through a single lock (they are set rarely — once per batch, not once
per item).

Histograms use fixed log-scale buckets — powers of two spanning about a
microsecond to ~17 minutes (:data:`HISTOGRAM_BUCKETS`) — so latencies
from a sub-millisecond mmap query to a multi-minute crawl land in
meaningfully distinct buckets without per-metric configuration.

:meth:`MetricsRegistry.render_prometheus` renders the merged state in
the Prometheus text exposition format (``# TYPE`` comments, cumulative
``_bucket{le=...}`` series, ``_sum``/``_count``), which is what the
``serve`` layer's ``GET /metrics`` endpoint returns verbatim.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable

__all__ = ["HISTOGRAM_BUCKETS", "MetricsRegistry"]

#: Fixed histogram bucket upper bounds: 2**-20 s (~1 µs) .. 2**10 s.
HISTOGRAM_BUCKETS: tuple[float, ...] = tuple(2.0**e for e in range(-20, 11))

# the fewest shards at which finished threads' shards are folded
_FOLD_AT_LEAST = 16

# a metric key is (name, ((label, value), ...)) with labels sorted
_Key = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, Any]) -> _Key:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class _Histogram:
    """Per-shard histogram state: bucket counts plus running sum."""

    __slots__ = ("counts", "total")

    def __init__(self, n_buckets: int) -> None:
        # one extra slot counts observations above the top bucket (+Inf)
        self.counts = [0] * (n_buckets + 1)
        self.total = 0.0


class _Shard:
    """One thread's private counters and histograms (no lock needed)."""

    __slots__ = ("counters", "histograms", "owner")

    def __init__(self, owner: threading.Thread | None) -> None:
        self.counters: dict[_Key, float] = {}
        self.histograms: dict[_Key, _Histogram] = {}
        # the recording thread; None for the retired shard
        self.owner = owner

    def add(self, other: _Shard) -> None:
        """Add ``other``'s values, which no thread still records into."""
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value
        for key, hist in other.histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                mine = self.histograms[key] = _Histogram(len(hist.counts) - 1)
            for i, count in enumerate(hist.counts):
                mine.counts[i] += count
            mine.total += hist.total


class MetricsRegistry:
    """A process-wide set of counters, gauges, and histograms."""

    def __init__(self, buckets: Iterable[float] = HISTOGRAM_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram buckets cannot be empty")
        self._lock = threading.Lock()
        self._local = threading.local()
        # the retired shard first, then one per recording thread
        self._shards: list[_Shard] = [_Shard(None)]
        self._fold_at = _FOLD_AT_LEAST
        self._gauges: dict[_Key, float] = {}
        self._help: dict[str, str] = {}

    # -- write path (lock-free per thread) --------------------------------

    def _shard(self) -> _Shard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = _Shard(threading.current_thread())
            with self._lock:
                if len(self._shards) >= self._fold_at:
                    self._retire_finished()
                self._shards.append(shard)
            self._local.shard = shard
        return shard

    def _retire_finished(self) -> None:
        """Fold the shards of finished threads into the retired shard.

        Called under the lock.  The retired shard and the list are
        replaced, not updated, so a reader that copied the old list
        still counts every value once.
        """
        retired, live = _Shard(None), []
        retired.add(self._shards[0])
        for shard in self._shards[1:]:
            if shard.owner.is_alive():
                live.append(shard)
            else:
                retired.add(shard)
        self._shards = [retired] + live
        self._fold_at = max(_FOLD_AT_LEAST, 2 * len(self._shards))

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` to the counter ``name`` (monotonic by contract)."""
        counters = self._shard().counters
        key = _key(name, labels)
        counters[key] = counters.get(key, 0.0) + value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one sample into the histogram ``name``."""
        histograms = self._shard().histograms
        key = _key(name, labels)
        hist = histograms.get(key)
        if hist is None:
            hist = histograms[key] = _Histogram(len(self.buckets))
        hist.counts[bisect_left(self.buckets, value)] += 1
        hist.total += value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to ``name`` in the exposition."""
        with self._lock:
            self._help[name] = help_text

    def reset(self) -> None:
        """Drop every recorded value (shards re-register on next touch)."""
        with self._lock:
            for shard in self._shards:
                shard.counters = {}
                shard.histograms = {}
            self._gauges.clear()

    # -- read path (merges shards) ----------------------------------------

    @staticmethod
    def _stable_items(mapping: dict) -> list[tuple]:
        """Items of a dict other threads may be growing concurrently."""
        for _ in range(8):
            try:
                return list(mapping.items())
            except RuntimeError:  # pragma: no cover - racy resize window
                continue
        return list(mapping.items())  # pragma: no cover

    def _merged(self) -> tuple[dict[_Key, float], dict[_Key, tuple[list[int], float]]]:
        counters: dict[_Key, float] = {}
        histograms: dict[_Key, tuple[list[int], float]] = {}
        with self._lock:
            shards = list(self._shards)
        for shard in shards:
            for key, value in self._stable_items(shard.counters):
                counters[key] = counters.get(key, 0.0) + value
            for key, hist in self._stable_items(shard.histograms):
                merged = histograms.get(key)
                if merged is None:
                    histograms[key] = (list(hist.counts), hist.total)
                else:
                    counts, total = merged
                    for i, count in enumerate(hist.counts):
                        counts[i] += count
                    histograms[key] = (counts, total + hist.total)
        return counters, histograms

    def counter_value(self, name: str, **labels: Any) -> float:
        """The merged value of one counter (0.0 when never incremented)."""
        return self._merged()[0].get(_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels: Any) -> float | None:
        """The current gauge value, or ``None`` when never set."""
        with self._lock:
            return self._gauges.get(_key(name, labels))

    def histogram_stats(self, name: str, **labels: Any) -> tuple[int, float]:
        """``(count, sum)`` of one merged histogram (``(0, 0.0)`` if empty)."""
        hist = self._merged()[1].get(_key(name, labels))
        if hist is None:
            return 0, 0.0
        counts, total = hist
        return sum(counts), total

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """A JSON-ready view: flat ``name{label="v"}`` keys per family."""
        counters, histograms = self._merged()
        with self._lock:
            gauges = dict(self._gauges)
        return {
            "counters": {_flat(key): value for key, value in sorted(counters.items())},
            "gauges": {_flat(key): value for key, value in sorted(gauges.items())},
            "histograms": {
                _flat(key): {"count": sum(counts), "sum": total}
                for key, (counts, total) in sorted(histograms.items())
            },
        }

    def render_prometheus(self) -> str:
        """The merged state in Prometheus text exposition format."""
        counters, histograms = self._merged()
        with self._lock:
            gauges = dict(self._gauges)
            help_text = dict(self._help)
        lines: list[str] = []

        def header(name: str, kind: str) -> None:
            if name in help_text:
                lines.append(f"# HELP {name} {help_text[name]}")
            lines.append(f"# TYPE {name} {kind}")

        for kind, family in (("counter", counters), ("gauge", gauges)):
            by_name: dict[str, list] = {}
            for key, value in sorted(family.items()):
                by_name.setdefault(key[0], []).append((key[1], value))
            for name, series in by_name.items():
                header(name, kind)
                for labels, value in series:
                    lines.append(f"{name}{_label_str(labels)} {_fmt(value)}")

        hist_by_name: dict[str, list] = {}
        for key, merged in sorted(histograms.items()):
            hist_by_name.setdefault(key[0], []).append((key[1], merged))
        for name, series in hist_by_name.items():
            header(name, "histogram")
            for labels, (counts, total) in series:
                cumulative = 0
                for bound, count in zip(self.buckets, counts):
                    cumulative += count
                    le = (("le", _fmt_bound(bound)),)
                    lines.append(
                        f"{name}_bucket{_label_str(labels + le)} {cumulative}"
                    )
                cumulative += counts[-1]
                inf = (("le", "+Inf"),)
                lines.append(f"{name}_bucket{_label_str(labels + inf)} {cumulative}")
                lines.append(f"{name}_sum{_label_str(labels)} {_fmt(total)}")
                lines.append(f"{name}_count{_label_str(labels)} {cumulative}")
        return "\n".join(lines) + "\n" if lines else ""


def _flat(key: _Key) -> str:
    return key[0] + _label_str(key[1])


def _label_str(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    parts = (f'{name}="{_escape(value)}"' for name, value in labels)
    return "{" + ",".join(parts) + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_bound(bound: float) -> str:
    # exact powers of two render compactly and round-trip exactly
    return repr(float(bound))

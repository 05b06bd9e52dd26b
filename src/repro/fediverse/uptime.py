"""Instance availability: the outage process behind Sections 4.4 and 5.

The paper probes every instance every five minutes for fifteen months and
observes (i) a long tail of poorly-available instances (11% offline more
than half the time), (ii) occasional AS-wide outages that take down every
instance co-located in the AS (Table 1), and (iii) outages caused by
expired TLS certificates (Fig. 9b).

Rather than stepping a boolean per instance per five-minute tick (which
would be ~136K ticks x thousands of instances), the simulator represents
availability as a set of outage *intervals* per instance.  Downtime
fractions, per-day downtime and outage durations are then computed
analytically from the intervals, and the monitor simply evaluates
"is the instance inside an outage?" at each snapshot time.

The schedule keeps each instance's intervals as plain ``(start, end,
cause)`` rows sorted by start, and builds :class:`Outage` objects only
when :meth:`AvailabilitySchedule.outages_for` asks for them.  The
generators add one instance's outages as one batch, so a domain's list
is sorted once per batch rather than once per outage (a medium scenario
draws about 30,000 outages).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.simtime import MINUTES_PER_DAY, TimeWindow, merge_windows


class OutageCause(str, Enum):
    """Why an instance was unreachable."""

    INSTANCE = "instance"          #: instance-local failure (crash, maintenance, abandonment)
    AS_FAILURE = "as_failure"      #: the hosting AS failed, taking every co-located instance down
    CERTIFICATE = "certificate"    #: the TLS certificate expired and was not renewed in time
    PERMANENT = "permanent"        #: the instance went offline and never returned


@dataclass(frozen=True, slots=True)
class Outage:
    """A single unavailability interval for one instance."""

    domain: str
    window: TimeWindow
    cause: OutageCause = OutageCause.INSTANCE

    @property
    def start(self) -> int:
        """Start of the outage in simulation minutes."""
        return self.window.start

    @property
    def end(self) -> int:
        """End of the outage in simulation minutes (exclusive)."""
        return self.window.end

    @property
    def duration_minutes(self) -> int:
        """Length of the outage in minutes."""
        return self.window.duration

    @property
    def duration_days(self) -> float:
        """Length of the outage in fractional days."""
        return self.window.duration / MINUTES_PER_DAY


@dataclass(frozen=True, slots=True)
class ASOutageEvent:
    """An AS-wide failure taking down every instance hosted in the AS."""

    asn: int
    window: TimeWindow
    domains: tuple[str, ...]


#: Sort key of a stored ``(start, end, cause)`` row: its start alone, so
#: rows with equal starts keep the order they were added in.
_START = itemgetter(0)


class AvailabilitySchedule:
    """The ground-truth availability of every instance over the window.

    The schedule is populated by the scenario generator (and can be
    extended by tests); the network consults it to decide whether an
    instance responds to a request at a given simulation minute, and the
    availability analysis consumes the recorded snapshots produced by the
    monitor — exactly mirroring the paper's pipeline.

    Each domain's outages are stored as ``(start, end, cause)`` rows,
    clamped to the window and kept sorted by ``start``; rows with equal
    starts keep the order they were added in.  Every ``add_*`` call is
    one batch: its rows are appended, then each domain it touched is
    sorted once (stably, by ``start`` alone), which leaves exactly the
    order a re-sort after every single append would.  Sorting happens
    only while the single-threaded generator populates the schedule,
    never on a read, because the crawler's threads read it concurrently.
    """

    def __init__(self, window_minutes: int) -> None:
        if window_minutes <= 0:
            raise ConfigurationError("observation window must be positive")
        self.window_minutes = window_minutes
        self._rows: dict[str, list[tuple[int, int, OutageCause]]] = {}
        self._as_events: list[ASOutageEvent] = []
        self._permanently_down_from: dict[str, int] = {}

    # -- population ---------------------------------------------------------

    def add_outage_rows(self, rows: Iterable[tuple[str, int, int, OutageCause]]) -> None:
        """Record ``(domain, start, end, cause)`` outage rows as one batch.

        Rows are clamped to the window (a row left empty is dropped), and
        each touched domain is sorted once after the whole batch is in.
        """
        window = self.window_minutes
        touched: dict[str, list[tuple[int, int, OutageCause]]] = {}
        for domain, start, end, cause in rows:
            start = max(start, 0)
            end = min(end, window)
            if start >= end:
                continue
            stored = touched.get(domain)
            if stored is None:
                stored = touched[domain] = self._rows.setdefault(domain, [])
            stored.append((start, end, cause))
        for stored in touched.values():
            stored.sort(key=_START)

    def add_outage(self, outage: Outage) -> None:
        """Record an outage interval for an instance."""
        self.add_outages((outage,))

    def add_outages(self, outages: Iterable[Outage]) -> None:
        """Record several outages at once."""
        self.add_outage_rows((o.domain, o.start, o.end, o.cause) for o in outages)

    def add_as_event(self, event: ASOutageEvent) -> None:
        """Record an AS-wide outage; per-instance outages are added too."""
        self._as_events.append(event)
        start, end = event.window.start, event.window.end
        self.add_outage_rows(
            (domain, start, end, OutageCause.AS_FAILURE) for domain in event.domains
        )

    def mark_permanently_down(self, domain: str, from_minute: int) -> None:
        """Mark an instance as gone for good from ``from_minute`` onwards.

        The paper found 21.3% of instances went offline during the window
        and never returned; those are excluded from outage statistics but
        do affect which instances the toot crawler can reach.
        """
        self._permanently_down_from[domain] = max(0, from_minute)
        window = TimeWindow(max(0, from_minute), self.window_minutes)
        if window.duration > 0:
            self.add_outage(Outage(domain=domain, window=window, cause=OutageCause.PERMANENT))

    # -- queries ------------------------------------------------------------

    def domains(self) -> Iterator[str]:
        """Iterate over domains that have at least one recorded outage."""
        return iter(self._rows)

    def outages_for(self, domain: str) -> list[Outage]:
        """Return the outages recorded for ``domain`` (possibly empty)."""
        return [
            Outage(domain=domain, window=TimeWindow(start, end), cause=cause)
            for start, end, cause in self._rows.get(domain, ())
        ]

    def as_events(self) -> list[ASOutageEvent]:
        """Return every AS-wide outage event."""
        return list(self._as_events)

    def is_permanently_down(self, domain: str, minute: int | None = None) -> bool:
        """Return whether ``domain`` is permanently gone (optionally by ``minute``)."""
        if domain not in self._permanently_down_from:
            return False
        if minute is None:
            return True
        return minute >= self._permanently_down_from[domain]

    def is_online(self, domain: str, minute: int) -> bool:
        """Return whether ``domain`` is reachable at ``minute``."""
        for start, end, _ in self._rows.get(domain, ()):
            if start > minute:
                break
            if minute < end:
                return False
        return True

    def downtime_minutes(self, domain: str, start: int = 0, end: int | None = None) -> int:
        """Total offline minutes for ``domain`` within ``[start, end)``."""
        end = self.window_minutes if end is None else end
        covered = 0
        frontier = start  # everything before it is counted or outside the range
        for row_start, row_end, _ in self._rows.get(domain, ()):
            if row_start >= end:
                break
            low = max(row_start, frontier)
            high = min(row_end, end)
            if high > low:
                covered += high - low
                frontier = high
        return covered

    def downtime_fraction(self, domain: str, start: int = 0, end: int | None = None) -> float:
        """Fraction of ``[start, end)`` during which ``domain`` was offline."""
        end = self.window_minutes if end is None else end
        if end <= start:
            raise ConfigurationError("downtime window must have positive length")
        return self.downtime_minutes(domain, start, end) / (end - start)

    def daily_downtime_fractions(self, domain: str) -> list[float]:
        """Per-day downtime fractions across the observation window (Fig. 8)."""
        days = self.window_minutes // MINUTES_PER_DAY
        fractions: list[float] = []
        for day in range(days):
            start = day * MINUTES_PER_DAY
            fractions.append(self.downtime_fraction(domain, start, start + MINUTES_PER_DAY))
        return fractions

    def merged_outage_windows(self, domain: str) -> list[TimeWindow]:
        """Return the merged (disjoint) outage windows for ``domain``."""
        return merge_windows(
            [TimeWindow(start, end) for start, end, _ in self._rows.get(domain, ())]
        )

    def continuous_outage_days(self, domain: str) -> list[float]:
        """Durations (in days) of each merged outage of ``domain`` (Fig. 10)."""
        return [w.duration / MINUTES_PER_DAY for w in self.merged_outage_windows(domain)]

    def longest_outage_days(self, domain: str) -> float:
        """Length of the longest continuous outage of ``domain`` in days."""
        durations = self.continuous_outage_days(domain)
        return max(durations) if durations else 0.0

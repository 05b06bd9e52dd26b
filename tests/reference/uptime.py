"""The outage schedule as first written: one re-sort per added outage.

:class:`AvailabilitySchedule` is the class that
:class:`repro.fediverse.uptime.AvailabilitySchedule` replaced, kept
verbatim.  It stores each domain's outages as :class:`Outage` objects
and sorts the domain's whole list by start after every append, so ties
keep their append order.  The schedule that sorts once per batch and
stores ``(start, end, cause)`` rows must give exactly the same answer to
every query for every sequence of additions.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.fediverse.uptime import ASOutageEvent, Outage, OutageCause
from repro.simtime import MINUTES_PER_DAY, TimeWindow, merge_windows, total_duration


class AvailabilitySchedule:
    """The ground-truth availability of every instance over the window.

    The schedule is populated by the scenario generator (and can be
    extended by tests); the network consults it to decide whether an
    instance responds to a request at a given simulation minute, and the
    availability analysis consumes the recorded snapshots produced by the
    monitor — exactly mirroring the paper's pipeline.
    """

    def __init__(self, window_minutes: int) -> None:
        if window_minutes <= 0:
            raise ConfigurationError("observation window must be positive")
        self.window_minutes = window_minutes
        self._outages: dict[str, list[Outage]] = {}
        self._as_events: list[ASOutageEvent] = []
        self._permanently_down_from: dict[str, int] = {}

    # -- population ---------------------------------------------------------

    def add_outage(self, outage: Outage) -> None:
        """Record an outage interval for an instance."""
        clipped = outage.window.clamp(0, self.window_minutes)
        if clipped is None:
            return
        stored = Outage(domain=outage.domain, window=clipped, cause=outage.cause)
        self._outages.setdefault(outage.domain, []).append(stored)
        self._outages[outage.domain].sort(key=lambda o: o.start)

    def add_outages(self, outages: Iterable[Outage]) -> None:
        """Record several outages at once."""
        for outage in outages:
            self.add_outage(outage)

    def add_as_event(self, event: ASOutageEvent) -> None:
        """Record an AS-wide outage; per-instance outages are added too."""
        self._as_events.append(event)
        for domain in event.domains:
            self.add_outage(Outage(domain=domain, window=event.window, cause=OutageCause.AS_FAILURE))

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
        return iter(self._outages)

    def outages_for(self, domain: str) -> list[Outage]:
        """Return the outages recorded for ``domain`` (possibly empty)."""
        return list(self._outages.get(domain, []))

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
        for outage in self._outages.get(domain, []):
            if outage.window.contains(minute):
                return False
            if outage.start > minute:
                break
        return True

    def downtime_minutes(self, domain: str, start: int = 0, end: int | None = None) -> int:
        """Total offline minutes for ``domain`` within ``[start, end)``."""
        end = self.window_minutes if end is None else end
        windows = []
        for outage in self._outages.get(domain, []):
            clipped = outage.window.clamp(start, end)
            if clipped is not None:
                windows.append(clipped)
        return total_duration(windows)

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
        return merge_windows([o.window for o in self._outages.get(domain, [])])

    def continuous_outage_days(self, domain: str) -> list[float]:
        """Durations (in days) of each merged outage of ``domain`` (Fig. 10)."""
        return [w.duration / MINUTES_PER_DAY for w in self.merged_outage_windows(domain)]

    def longest_outage_days(self, domain: str) -> float:
        """Length of the longest continuous outage of ``domain`` in days."""
        durations = self.continuous_outage_days(domain)
        return max(durations) if durations else 0.0

"""Failure models: who disappears, at which removal step — or for how long.

A failure model reduces to something the kernels understand.  **Cumulative**
models (the paper's Figs. 15b/d, 16 instance removal and Figs. 15a/c AS
removal) name a mapping ``domain -> 1-based removal step`` plus the
schedule length: removed domains stay removed, and the availability curve
is a cumulative sum of per-step losses.  **Correlated** models are the
same contract applied to whole infrastructure groups — the paper's real
headline risk (Figs. 5/13, Tables 1-2): a handful of hosting providers
and countries sit behind most instances, so one hoster outage removes a
correlated instance set in a single step.  **Temporal** models drop the
monotone assumption entirely: ``steps`` become simulated time ticks,
each tick carries its own per-domain down set, and instances go down
*and come back* — churn sampled from the empirical outage distributions
of :mod:`repro.fediverse.uptime` (Figs. 7-10).

Everything still flows through the same kill kernel.  A cumulative
model contributes one removal column; a temporal model contributes one
single-step column *per tick*, built by
:func:`repro.engine.kernels.temporal_removal_matrix` — down domains get
step 1, up domains get ``inf``, so the kill rule ("a toot dies only when
its *last* holder disappears") computes exactly "every holder is down
at this tick".  Loss counts stay additive across disjoint toot ranges,
so the streaming fold (:mod:`repro.engine.sharding`) evaluates temporal
schedules unchanged and bit-identically at any range split.

To plug in a new model:

1. subclass :class:`FailureModel` (cumulative / correlated) or
   :class:`TemporalFailureModel` (churn-style);
2. implement :meth:`FailureModel.removal_index` — or, for temporal
   models, :meth:`TemporalFailureModel.down_intervals` — plus
   :meth:`effective_steps` if the realised schedule can be shorter;
3. hand it to :func:`repro.engine.sweep.availability_curve` or a sweep.

Nothing else in the engine needs to change.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.simtime import MINUTES_PER_DAY


def _check_unique(ranking: Sequence[Hashable], what: str) -> None:
    """Reject rankings with duplicate entries.

    A duplicated domain/ASN/group would silently let the *last*
    occurrence win when the ranking is folded into ``removal_index`` —
    the earlier (higher-ranked) removal step would be overwritten — so
    duplicates are a hard error rather than a quiet reordering.
    """
    seen: set[Hashable] = set()
    duplicates: list[Hashable] = []
    for entry in ranking:
        if entry in seen and entry not in duplicates:
            duplicates.append(entry)
        seen.add(entry)
    if duplicates:
        listed = ", ".join(repr(d) for d in duplicates[:5])
        raise AnalysisError(f"duplicate {what} in removal ranking: {listed}")


class FailureModel:
    """Base class: a named, fixed-length removal schedule."""

    #: Cumulative models remove monotonically; temporal subclasses flip
    #: this and reinterpret ``steps`` as simulated time ticks.
    temporal: bool = False

    def __init__(self, name: str, steps: int) -> None:
        if steps < 1:
            raise AnalysisError("steps must be positive")
        self.name = name
        self.steps = steps

    def removal_index(self) -> dict[str, int]:
        """Map each failing domain to its 1-based removal step."""
        raise NotImplementedError

    def effective_steps(self) -> int:
        """The realised schedule length (rankings may be shorter)."""
        return self.steps

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, steps={self.steps})"


def rank_by_count(domains: Iterable[str], counts: Mapping[str, int]) -> list[str]:
    """``domains`` by descending ``counts`` (0 when absent), ties in input order.

    The one instance ranking behind every removal schedule: the batch
    experiments and the query service both pass the graph's domain
    order, so the two rank identically by construction.
    """
    return sorted(domains, key=lambda domain: counts.get(domain, 0), reverse=True)


class InstanceRemoval(FailureModel):
    """Remove the top-``steps`` instances of ``ranking``, one per step."""

    def __init__(
        self, ranking: Sequence[str], steps: int = 100, name: str = "instance-removal"
    ) -> None:
        super().__init__(name=name, steps=steps)
        self.ranking = tuple(ranking)
        _check_unique(self.ranking, "domains")

    def removal_index(self) -> dict[str, int]:
        return {domain: i + 1 for i, domain in enumerate(self.ranking[: self.steps])}

    def effective_steps(self) -> int:
        return min(self.steps, len(self.ranking))


class GroupedRemoval(FailureModel):
    """Remove whole infrastructure groups of ``ranking``, one per step.

    Step ``k`` takes down every instance mapped to ``ranking[k - 1]`` —
    the correlated-failure shape of the paper's AS analysis (Table 1),
    generalised to any grouping key: hosting provider, country,
    datacentre, certificate authority.  Instances whose group never
    appears in the (truncated) ranking survive the whole schedule.
    """

    #: Human label for the grouping key, used in error messages.
    group_label = "groups"

    def __init__(
        self,
        group_of_instance: Mapping[str, Hashable],
        ranking: Sequence[Hashable],
        steps: int,
        name: str,
    ) -> None:
        super().__init__(name=name, steps=steps)
        self.ranking = tuple(ranking)
        _check_unique(self.ranking, self.group_label)
        self.group_of_instance = dict(group_of_instance)

    def removal_index(self) -> dict[str, int]:
        group_index = {
            group: i + 1 for i, group in enumerate(self.ranking[: self.steps])
        }
        return {
            domain: group_index[group]
            for domain, group in self.group_of_instance.items()
            if group in group_index
        }

    def effective_steps(self) -> int:
        return min(self.steps, len(self.ranking))


class ASRemoval(GroupedRemoval):
    """Remove the top-``steps`` ASes of ``ranking`` with every instance they host."""

    group_label = "ASNs"

    def __init__(
        self,
        asn_of_instance: Mapping[str, int],
        ranking: Sequence[int],
        steps: int = 25,
        name: str = "as-removal",
    ) -> None:
        super().__init__(asn_of_instance, ranking, steps=steps, name=name)

    @property
    def asn_of_instance(self) -> dict[str, int]:
        """The instance → hosting-ASN mapping (alias of the group mapping)."""
        return self.group_of_instance


class HosterRemoval(GroupedRemoval):
    """Remove hosting providers in ranked order, each with every instance it hosts.

    The paper's headline correlated risk: Figs. 5/13 and Tables 1-2 show
    a handful of hosters (Amazon, Cloudflare, OVH, Sakura) behind most
    instances.  ``hoster_of_instance`` groups domains by provider label
    (see :func:`repro.fediverse.geo.hoster_of_asn`, which collapses
    sibling ASNs of one provider into a single hoster).
    """

    group_label = "hosters"

    def __init__(
        self,
        hoster_of_instance: Mapping[str, str],
        ranking: Sequence[str],
        steps: int = 10,
        name: str = "hoster-removal",
    ) -> None:
        super().__init__(hoster_of_instance, ranking, steps=steps, name=name)

    @property
    def hoster_of_instance(self) -> dict[str, str]:
        """The instance → hosting-provider mapping (alias of the group mapping)."""
        return self.group_of_instance


class CountryRemoval(GroupedRemoval):
    """Remove hosting countries in ranked order — national-scale outages/blocks.

    Fig. 5's concentration makes this the widest correlated blast radius:
    three countries (JP/US/FR) host most of the fediverse, so a single
    country-level event removes a majority of instances in one step.
    """

    group_label = "countries"

    def __init__(
        self,
        country_of_instance: Mapping[str, str],
        ranking: Sequence[str],
        steps: int = 10,
        name: str = "country-removal",
    ) -> None:
        super().__init__(country_of_instance, ranking, steps=steps, name=name)

    @property
    def country_of_instance(self) -> dict[str, str]:
        """The instance → hosting-country mapping (alias of the group mapping)."""
        return self.group_of_instance


# -- temporal models --------------------------------------------------------------


class TemporalFailureModel(FailureModel):
    """Base class for churn-style models: ``steps`` are simulated time ticks.

    A temporal model describes *when* each domain is down — 1-based tick
    intervals ``[start, stop)`` with ``1 <= start < stop <= steps + 1``
    — instead of a single monotone removal step; a domain can be down,
    recover, and go down again.  The resulting curve is an availability
    *time series*: index ``t`` is the fraction of toots with at least one
    live holder at tick ``t`` (index 0 is the no-outage baseline 1.0),
    and it is not monotone.
    """

    temporal = True

    def removal_index(self) -> dict[str, int]:
        raise AnalysisError(
            f"{self.name!r} is a temporal model: it describes down intervals "
            "per tick, not monotone removal steps — use down_intervals()"
        )

    def down_intervals(self) -> dict[str, list[tuple[int, int]]]:
        """Per-domain outage intervals as 1-based tick ranges ``[start, stop)``."""
        raise NotImplementedError

    def down_matrix(self, lookup: "DomainLookup") -> np.ndarray:
        """Boolean ``(n_domains, ticks)``: is the domain down at tick ``t``?

        Columns are ticks ``1..effective_steps()`` aligned with the
        lookup's domain universe; domains outside the universe are
        ignored (they cannot affect any toot), exactly mirroring
        :meth:`DomainLookup.removal_vector`.
        """
        ticks = self.effective_steps()
        down = np.zeros((lookup.n_domains, ticks), dtype=bool)
        intervals = self.down_intervals()
        if not intervals:
            return down
        codes = lookup.codes(list(intervals.keys()))
        for code, windows in zip(codes, intervals.values()):
            if code < 0:
                continue
            for start, stop in windows:
                lo = max(int(start), 1)
                hi = min(int(stop), ticks + 1)
                if lo < hi:
                    down[code, lo - 1 : hi - 1] = True
        return down


class ScheduledDowntime(TemporalFailureModel):
    """Explicit per-domain outage intervals over a fixed tick horizon.

    The deterministic temporal primitive: tests and what-if scenarios
    name exactly which domain is down at which ticks.  The degenerate
    configuration — every domain's interval running to the horizon, one
    new domain per tick — reproduces :class:`InstanceRemoval` curves bit
    for bit (the differential suite holds it to that).
    """

    def __init__(
        self,
        intervals: Mapping[str, Sequence[tuple[int, int]]],
        steps: int,
        name: str = "scheduled-downtime",
    ) -> None:
        super().__init__(name=name, steps=steps)
        validated: dict[str, list[tuple[int, int]]] = {}
        for domain, windows in intervals.items():
            cleaned: list[tuple[int, int]] = []
            for window in windows:
                start, stop = int(window[0]), int(window[1])
                if start < 1 or stop <= start or stop > steps + 1:
                    raise AnalysisError(
                        f"outage interval [{start}, {stop}) for {domain!r} falls "
                        f"outside ticks 1..{steps}"
                    )
                cleaned.append((start, stop))
            validated[domain] = sorted(cleaned)
        self._intervals = validated

    def down_intervals(self) -> dict[str, list[tuple[int, int]]]:
        return {domain: list(windows) for domain, windows in self._intervals.items()}


class TemporalChurn(TemporalFailureModel):
    """Stochastic churn sampled from the empirical outage distributions.

    For every domain, outage durations are bootstrap-resampled from the
    pooled empirical continuous-outage sample (Fig. 10,
    :meth:`AvailabilitySchedule.continuous_outage_days`) until the
    domain's accumulated downtime reaches its empirical downtime
    fraction (Figs. 7-8) of the horizon; each outage starts uniformly at
    random within the horizon.  Outages are then discretised onto
    ``steps`` probe ticks — a domain is down at tick ``t`` iff an outage
    covers the tick's probe instant, mirroring the paper's periodic
    probing (outages shorter than the probe spacing can be missed,
    exactly as they were by the five-minute prober).

    Sampling is fully determined by ``seed`` and the constructor
    arguments; two models built from the same inputs produce identical
    schedules.  :meth:`sampled_outage_days` and
    :meth:`realised_downtime_fractions` expose the raw draws so the
    statistical suite can hold the sampler to the source distributions
    (two-sample KS in ``tests/engine/test_failure_models.py``).
    """

    #: Bootstrap draws per domain are capped; a domain whose target
    #: downtime cannot be filled within the cap keeps what it has (only
    #: pathological duration/horizon ratios ever hit this).
    MAX_DRAWS_PER_DOMAIN = 256

    def __init__(
        self,
        domains: Sequence[str],
        outage_durations_days: Sequence[float],
        downtime_fraction_of: Mapping[str, float],
        steps: int = 96,
        horizon_days: float = 30.0,
        seed: int = 0,
        name: str = "temporal-churn",
    ) -> None:
        super().__init__(name=name, steps=steps)
        self.domains = tuple(domains)
        durations = np.asarray(list(outage_durations_days), dtype=np.float64)
        if durations.size == 0:
            raise AnalysisError("temporal churn needs a non-empty empirical outage sample")
        if not np.all(durations > 0):
            raise AnalysisError("empirical outage durations must be positive")
        if horizon_days <= 0:
            raise AnalysisError("the churn horizon must be positive")
        self.horizon_days = float(horizon_days)
        self.seed = seed
        self._durations = durations
        self._downtime = {
            str(domain): float(fraction)
            for domain, fraction in downtime_fraction_of.items()
        }
        for domain, fraction in self._downtime.items():
            if not 0.0 <= fraction <= 1.0:
                raise AnalysisError(
                    f"downtime fraction for {domain!r} must be in [0, 1], got {fraction}"
                )
        self._sampled: dict[str, list[tuple[float, float]]] | None = None
        self._drawn_durations: np.ndarray | None = None

    @classmethod
    def from_schedule(
        cls,
        schedule: "AvailabilitySchedule",
        domains: Sequence[str],
        steps: int = 96,
        horizon_days: float | None = None,
        seed: int = 0,
        name: str = "temporal-churn",
    ) -> "TemporalChurn":
        """Build churn straight from a scenario's ground-truth availability.

        The empirical sample pools every *recovered* merged outage across
        ``domains`` (outages still running at the end of the window are
        excluded, matching Fig. 10's only-came-back rule); per-domain
        downtime targets are the schedule's whole-window downtime
        fractions (the mean of its per-day fractions, Figs. 7-8).
        """
        durations: list[float] = []
        for domain in domains:
            for window in schedule.merged_outage_windows(domain):
                if window.end < schedule.window_minutes:
                    durations.append(window.duration / MINUTES_PER_DAY)
        if not durations:
            raise AnalysisError(
                "the availability schedule records no recovered outages to sample from"
            )
        downtime = {domain: schedule.downtime_fraction(domain) for domain in domains}
        horizon = (
            schedule.window_minutes / MINUTES_PER_DAY
            if horizon_days is None
            else horizon_days
        )
        return cls(
            domains,
            durations,
            downtime,
            steps=steps,
            horizon_days=horizon,
            seed=seed,
            name=name,
        )

    # -- sampling -------------------------------------------------------------

    def _sample(self) -> dict[str, list[tuple[float, float]]]:
        """Draw (and memoise) raw outage windows in days per domain."""
        if self._sampled is not None:
            return self._sampled
        rng = np.random.default_rng(self.seed)
        horizon = self.horizon_days
        sampled: dict[str, list[tuple[float, float]]] = {}
        drawn: list[float] = []
        for domain in self.domains:
            target = self._downtime.get(domain, 0.0)
            budget = target * horizon
            if budget <= 0.0:
                continue
            windows: list[tuple[float, float]] = []
            accumulated = 0.0
            for _ in range(self.MAX_DRAWS_PER_DOMAIN):
                if accumulated >= budget:
                    break
                duration = float(rng.choice(self._durations))
                start = float(rng.uniform(0.0, horizon))
                end = min(start + duration, horizon)
                if end > start:
                    windows.append((start, end))
                drawn.append(duration)
                accumulated += duration
            if windows:
                sampled[domain] = sorted(windows)
        self._sampled = sampled
        self._drawn_durations = np.asarray(drawn, dtype=np.float64)
        return sampled

    def sampled_outage_days(self) -> np.ndarray:
        """Every bootstrap-drawn outage duration (days), before clipping.

        The sample the statistical suite compares against the empirical
        source distribution: draws are with replacement from the source,
        so a two-sample KS test must not distinguish them.
        """
        self._sample()
        assert self._drawn_durations is not None
        return self._drawn_durations

    def realised_downtime_fractions(self) -> dict[str, float]:
        """Per-domain fraction of the horizon covered by sampled outages."""
        from repro.simtime import TimeWindow, merge_windows, total_duration

        scale = 10_000  # merge_windows works on integer minutes-like units
        fractions: dict[str, float] = {}
        for domain, windows in self._sample().items():
            merged = merge_windows(
                [
                    TimeWindow(int(start * scale), max(int(end * scale), int(start * scale) + 1))
                    for start, end in windows
                ]
            )
            fractions[domain] = total_duration(merged) / (self.horizon_days * scale)
        return fractions

    def down_intervals(self) -> dict[str, list[tuple[int, int]]]:
        """Sampled outages discretised to probe ticks.

        Tick ``t`` probes the instant ``(t - 0.5) * horizon / steps``; an
        outage ``[s, e)`` covers ticks ``ceil(s/dt + 0.5) ..
        ceil(e/dt + 0.5) - 1``.
        """
        ticks = self.steps
        dt = self.horizon_days / ticks
        intervals: dict[str, list[tuple[int, int]]] = {}
        for domain, windows in self._sample().items():
            converted: list[tuple[int, int]] = []
            for start, end in windows:
                first = int(np.ceil(start / dt + 0.5))
                stop = int(np.ceil(end / dt + 0.5))
                first = max(first, 1)
                stop = min(stop, ticks + 1)
                if first < stop:
                    converted.append((first, stop))
            if converted:
                intervals[domain] = sorted(converted)
        return intervals

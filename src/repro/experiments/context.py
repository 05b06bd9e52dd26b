"""The shared pipeline behind every experiment: built lazily, built once.

:class:`ExperimentContext` owns the expensive artefacts the paper's
experiments share — the scenario network, the ``collect_datasets``
measurement pipeline, the Twitter baselines, instance/AS rankings, the
standard removal schedules, and the placement arrays behind the
replication sweeps — and memoises each one the first time a runner asks
for it.  ``run_experiments(["fig1", ..., "table2"])`` therefore builds
the pipeline exactly once; :attr:`ExperimentContext.counters` records
how many times each builder actually ran, so callers (and tests) can
prove it.

Placements are memoised per :class:`~repro.engine.sweep.StrategySpec`
(the specs are frozen, hashable recipes), and curves per (spec, failure),
so fig15 and fig16 share the same ``no-rep`` and ``s-rep`` placements
and fold each schedule over them once.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

from repro import obs
from repro.collect import CollectedDatasets, collect_datasets
from repro.core import resilience
from repro.crawler import RetryPolicy
from repro.errors import AnalysisError
from repro.datasets import TwitterBaselines
from repro.engine.failures import (
    ASRemoval,
    CountryRemoval,
    FailureModel,
    HosterRemoval,
    InstanceRemoval,
    TemporalChurn,
)
from repro.engine.placement import PlacementArrays
from repro.engine.sweep import (
    AvailabilityPoint,
    StrategySpec,
    SweepResult,
    availability_curves,
)
from repro.fediverse import build_scenario
from repro.fediverse.geo import hoster_of_asn

T = TypeVar("T")

#: Removal-schedule lengths shared by the fig13/15/16 family.
INSTANCE_REMOVAL_STEPS = 50
AS_REMOVAL_STEPS = 15

#: Correlated-failure schedules: whole hosters/countries per step, so the
#: schedules are short — a handful of groups already covers most users.
GROUP_REMOVAL_STEPS = 10

#: Defaults for the temporal churn sweep: ticks across the observation
#: window and the bootstrap seeds of the sampled outage processes.
CHURN_TICKS = 48
CHURN_SEEDS = (0, 1, 2)


class ExperimentContext:
    """Lazily builds and memoises the artefacts experiments share."""

    def __init__(
        self,
        preset: str = "tiny",
        seed: int = 7,
        monitor_interval_minutes: int = 24 * 60,
        twitter_days: int = 300,
        twitter_users: int = 4_000,
        twitter_seed: int = 2007,
        shard_size: int | None = None,
        corpus_dir: "str | Path | None" = None,
        graph_dir: "str | Path | None" = None,
        churn_ticks: int = CHURN_TICKS,
        churn_seeds: Sequence[int] = CHURN_SEEDS,
        fault_rate: float | None = None,
        fault_seed: int = 0,
        retries: "int | RetryPolicy | None" = None,
    ) -> None:
        self.preset = preset
        self.seed = seed
        self.monitor_interval_minutes = monitor_interval_minutes
        self.twitter_days = twitter_days
        self.twitter_users = twitter_users
        self.twitter_seed = twitter_seed
        #: Toot-range split forwarded to every sweep's fold (None = the
        #: corpus's own shard bounds, 0 = one range; curves are equal at
        #: every split).
        self.shard_size = shard_size
        #: Where the toot crawl's columnar corpus (:mod:`repro.corpus`)
        #: and the follower crawl's edge store (:mod:`repro.corpus.graph`)
        #: live; ``None`` writes them to temporary directories.  An
        #: existing store is reused instead of re-crawled.
        self.corpus_dir = corpus_dir
        self.graph_dir = graph_dir
        #: Temporal-churn sweep shape: probe ticks across the window and
        #: one sampled outage process per bootstrap seed.
        self.churn_ticks = churn_ticks
        self.churn_seeds = tuple(churn_seeds)
        #: Resilience knobs forwarded to ``collect_datasets``: a seeded
        #: chaos layer over the transport (``fault_rate``/``fault_seed``)
        #: and a retry budget (``retries`` = max attempts per request,
        #: or a full :class:`~repro.crawler.resilient.RetryPolicy`).
        self.fault_rate = fault_rate
        self.fault_seed = fault_seed
        self.retries = retries
        #: How many times each expensive builder actually ran.
        self.counters: dict[str, int] = {
            "build_scenario": 0,
            "collect_datasets": 0,
            "twitter_baselines": 0,
            "placements_built": 0,
            "curves_evaluated": 0,
        }
        #: Wall-clock seconds accumulated inside each pipeline phase
        #: (scenario, collect, twitter, placement, sweep) — the profile
        #: behind ``--trace`` and the ``phase_*_seconds`` metadata.
        self.phase_seconds: dict[str, float] = {}
        self._network = None
        self._data: CollectedDatasets | None = None
        self._twitter: TwitterBaselines | None = None
        self._memo: dict[object, object] = {}
        self._placements: dict[StrategySpec, PlacementArrays] = {}
        #: (spec, failure name) -> (failure object, curve).  The failure
        #: object is kept both as the cache-validity witness (same name,
        #: different schedule -> recompute) and as a strong reference so
        #: a dead object's id can never be reused by a lookalike.
        self._curve_cache: dict[
            tuple[StrategySpec, str], tuple[FailureModel, list[AvailabilityPoint]]
        ] = {}

    @classmethod
    def from_datasets(
        cls,
        data: CollectedDatasets,
        *,
        network=None,
        twitter: TwitterBaselines | None = None,
        preset: str = "custom",
        seed: int | None = None,
        monitor_interval_minutes: int = 24 * 60,
    ) -> "ExperimentContext":
        """Wrap pre-built artefacts (e.g. pytest session fixtures).

        The provided objects seed the caches directly, so the counters
        stay at zero: nothing was built *by* this context.  Pass the
        ``monitor_interval_minutes`` the datasets were actually collected
        with — it is recorded in every result's run metadata.
        """
        ctx = cls(
            preset=preset,
            seed=-1 if seed is None else seed,
            monitor_interval_minutes=monitor_interval_minutes,
        )
        ctx._network = network if network is not None else data.network
        ctx._data = data
        ctx._twitter = twitter
        return ctx

    # -- the three pipeline roots --------------------------------------------

    def _phase(self, name: str, build: Callable[[], T], **attrs: object) -> T:
        """Run one pipeline phase inside a span, accumulating its seconds."""
        with obs.span(f"phase/{name}", **attrs):
            started = time.perf_counter()
            result = build()
            elapsed = time.perf_counter() - started
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed
        obs.count("repro_experiment_phase_seconds_total", elapsed, phase=name)
        return result

    @property
    def network(self):
        """The scenario fediverse (built on first access)."""
        if self._network is None:
            self._network = self._phase(
                "scenario",
                lambda: build_scenario(self.preset, seed=self.seed),
                preset=self.preset,
                seed=self.seed,
            )
            self.counters["build_scenario"] += 1
        return self._network

    @property
    def data(self) -> CollectedDatasets:
        """The full measurement pipeline output (built on first access)."""
        if self._data is None:
            network = self.network  # build the scenario in its own phase
            self._data = self._phase(
                "collect",
                lambda: collect_datasets(
                    network,
                    monitor_interval_minutes=self.monitor_interval_minutes,
                    corpus_dir=self.corpus_dir,
                    graph_dir=self.graph_dir,
                    fault_rates=self.fault_rate,
                    fault_seed=self.fault_seed,
                    retry_policy=self.retries,
                ),
                preset=self.preset,
            )
            self.counters["collect_datasets"] += 1
        return self._data

    @property
    def twitter(self) -> TwitterBaselines:
        """The Twitter comparison baselines (built on first access)."""
        if self._twitter is None:
            self._twitter = self._phase(
                "twitter",
                lambda: TwitterBaselines.generate(
                    days=self.twitter_days,
                    n_users=self.twitter_users,
                    seed=self.twitter_seed,
                ),
            )
            self.counters["twitter_baselines"] += 1
        return self._twitter

    # -- memoised derived artefacts ------------------------------------------

    def memo(self, key: object, build: Callable[[], T]) -> T:
        """Build-once storage for derived artefacts keyed by ``key``."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]  # type: ignore[return-value]

    @property
    def domains(self) -> list[str]:
        """Every instance domain (the random-replication candidate set)."""
        return self.memo("domains", lambda: self.data.instances.domains())

    @property
    def users_per_instance(self) -> dict[str, int]:
        return self.memo("users_per_instance", lambda: self.data.instances.users_per_instance())

    @property
    def toots_per_instance(self) -> dict[str, int]:
        """Crawled toots per instance (the fig15/16 ranking source)."""
        return self.memo("toots_per_instance", lambda: self.data.toots.toots_per_instance())

    @property
    def asn_of(self) -> dict[str, int]:
        """Instance domain -> hosting AS number."""
        return self.memo(
            "asn_of",
            lambda: {
                domain: self.data.instances.metadata_for(domain).asn
                for domain in self.data.instances.domains()
            },
        )

    @property
    def hoster_of(self) -> dict[str, str]:
        """Instance domain -> hosting-provider label (sibling ASNs collapsed)."""
        return self.memo(
            "hoster_of",
            lambda: {
                domain: hoster_of_asn(metadata.asn, metadata.as_name)
                for domain, metadata in (
                    (d, self.data.instances.metadata_for(d))
                    for d in self.data.instances.domains()
                )
            },
        )

    @property
    def country_of(self) -> dict[str, str]:
        """Instance domain -> hosting country code."""
        return self.memo(
            "country_of",
            lambda: {
                domain: self.data.instances.metadata_for(domain).country or "unknown"
                for domain in self.data.instances.domains()
            },
        )

    def hoster_ranking(self) -> list[str]:
        """Hosting providers ranked by hosted users (desc, label tiebreak)."""
        return self.memo(
            "hoster_ranking", lambda: self._group_ranking(self.hoster_of)
        )

    def country_ranking(self) -> list[str]:
        """Hosting countries ranked by hosted users (desc, code tiebreak)."""
        return self.memo(
            "country_ranking", lambda: self._group_ranking(self.country_of)
        )

    def _group_ranking(self, group_of: Mapping[str, str]) -> list[str]:
        users = self.users_per_instance
        totals: dict[str, int] = {}
        for domain, group in group_of.items():
            totals[group] = totals.get(group, 0) + users.get(domain, 0)
        return sorted(totals, key=lambda group: (-totals[group], group))

    def instance_ranking(self, by: str) -> list[str]:
        """Instances ranked for removal (``"users"|"toots"|"connections"``)."""
        return self.memo(
            ("instance_ranking", by),
            lambda: resilience.rank_instances(
                self.data.graphs,
                self.users_per_instance,
                self.toots_per_instance,
                by=by,
            ),
        )

    def as_ranking(self, by: str) -> list[int]:
        """ASes ranked for removal (``"instances"`` or ``"users"``)."""
        return self.memo(
            ("as_ranking", by),
            lambda: resilience.rank_ases(
                self.asn_of,
                self.users_per_instance if by == "users" else None,
                by=by,
            ),
        )

    def standard_failures(self) -> list[FailureModel]:
        """The fig15-family failure grid: 3 instance + 2 AS removal schedules.

        Names follow the ``instances/by_<ranking>`` / ``ases/by_<ranking>``
        convention; the models are shared objects, so sweeps across
        experiments reuse the same removal schedules.
        """
        return self.memo("standard_failures", self._build_standard_failures)

    def _build_standard_failures(self) -> list[FailureModel]:
        return [
            *(
                InstanceRemoval(
                    self.instance_ranking(by),
                    steps=INSTANCE_REMOVAL_STEPS,
                    name=f"instances/by_{by}",
                )
                for by in ("users", "toots", "connections")
            ),
            *(
                ASRemoval(
                    self.asn_of,
                    self.as_ranking(by),
                    steps=AS_REMOVAL_STEPS,
                    name=f"ases/by_{by}",
                )
                for by in ("instances", "users")
            ),
        ]

    def correlated_failures(self) -> list[FailureModel]:
        """The correlated-failure grid: ranked hoster and country outages.

        One whole infrastructure group disappears per step — the paper's
        Tables 1-2 blast radii, ranked by hosted users.
        """
        return self.memo(
            "correlated_failures",
            lambda: [
                HosterRemoval(
                    self.hoster_of,
                    self.hoster_ranking(),
                    steps=GROUP_REMOVAL_STEPS,
                    name="hosters/by_users",
                ),
                CountryRemoval(
                    self.country_of,
                    self.country_ranking(),
                    steps=GROUP_REMOVAL_STEPS,
                    name="countries/by_users",
                ),
            ],
        )

    def churn_failures(self) -> list[FailureModel]:
        """Temporal churn: one sampled outage process per bootstrap seed.

        Each model resamples the scenario's ground-truth outage
        distributions (:attr:`network.availability <repro.fediverse.network>`,
        Figs. 7-10) and probes availability at ``churn_ticks`` instants
        across the observation window — instances go down *and come back*.
        """
        return self.memo(
            "churn_failures",
            lambda: [
                TemporalChurn.from_schedule(
                    self.network.availability,
                    self.domains,
                    steps=self.churn_ticks,
                    seed=seed,
                    name=f"churn/seed={seed}",
                )
                for seed in self.churn_seeds
            ],
        )

    # -- placement strategies and sweeps -------------------------------------

    def placements_for(self, spec: StrategySpec) -> PlacementArrays:
        """The placement arrays for ``spec``, built once per distinct spec.

        They build straight from the corpus columns
        (:meth:`StrategySpec.build_from_corpus`), and the subscription
        strategy reads follower-domain sets from the graph store's edge
        shards — no records on the placement path.
        """
        if spec not in self._placements:
            data = self.data  # collect in its own phase, not under placement
            self._placements[spec] = self._phase(
                "placement",
                lambda: spec.build_from_corpus(
                    data.corpus,
                    graphs=data.graph_store,
                    candidate_domains=self.domains,
                ),
                strategy=spec.name,
            )
            self.counters["placements_built"] += 1
        return self._placements[spec]

    def sweep(
        self,
        strategies: Sequence[StrategySpec],
        failures: Sequence[FailureModel],
        *,
        keep_placements: bool = False,
    ) -> SweepResult:
        """A (strategy × failure) availability sweep over cached placements.

        The context-level equivalent of
        :func:`repro.engine.sweep.run_availability_sweep`: placements
        come from :meth:`placements_for`, so repeated sweeps sharing a
        strategy build it once.  The context's ``shard_size`` knob picks
        the toot ranges of every fold.
        """
        if not strategies:
            raise AnalysisError("need at least one placement strategy")
        names = [spec.name for spec in strategies]
        if len(set(names)) != len(names):
            raise AnalysisError("placement strategies must have distinct names")
        curves: dict[tuple[str, str], list[AvailabilityPoint]] = {}
        placements_by_name: dict[str, PlacementArrays] = {}
        for spec in strategies:
            placements = self.placements_for(spec)
            if keep_placements:
                placements_by_name[spec.name] = placements
            # curves are cached per (spec, failure *object*): experiments
            # share failure models through the memoised grids, so e.g.
            # fig16 reuses fig15's instances/by_toots curves instead of
            # re-reducing the whole corpus
            missing = [
                failure
                for failure in failures
                if (cached := self._curve_cache.get((spec, failure.name))) is None
                or cached[0] is not failure
            ]
            if missing:
                fresh = self._phase(
                    "sweep",
                    lambda: availability_curves(
                        placements, missing, shard_size=self.shard_size
                    ),
                    strategy=spec.name,
                    failures=len(missing),
                )
                for failure in missing:
                    self._curve_cache[(spec, failure.name)] = (
                        failure,
                        fresh[failure.name],
                    )
                self.counters["curves_evaluated"] += len(missing)
            for failure in failures:
                curves[(spec.name, failure.name)] = self._curve_cache[
                    (spec, failure.name)
                ][1]
        return SweepResult(
            curves=curves,
            strategy_names=tuple(spec.name for spec in strategies),
            failure_names=tuple(failure.name for failure in failures),
            placements=placements_by_name,
        )

    # -- run metadata ---------------------------------------------------------

    def run_metadata(self) -> Mapping[str, object]:
        """The scenario parameters stamped into every result's metadata."""
        metadata: dict[str, object] = {
            "preset": self.preset,
            "seed": self.seed,
            "monitor_interval_minutes": self.monitor_interval_minutes,
        }
        if self.shard_size is not None:
            metadata["shard_size"] = self.shard_size
        if self.corpus_dir is not None:
            metadata["corpus_dir"] = str(self.corpus_dir)
        if self.graph_dir is not None:
            metadata["graph_dir"] = str(self.graph_dir)
        # churn knobs are stamped only when changed so that experiments
        # untouched by temporal sweeps keep their metadata stable
        if self.churn_ticks != CHURN_TICKS:
            metadata["churn_ticks"] = self.churn_ticks
        if self.churn_seeds != CHURN_SEEDS:
            metadata["churn_seeds"] = ",".join(str(seed) for seed in self.churn_seeds)
        # resilience knobs likewise only when set, and crawl coverage only
        # when the pipeline ran AND the crawl was partial — a complete
        # crawl carries no caveat worth stamping into every result
        if self.fault_rate is not None:
            metadata["fault_rate"] = self.fault_rate
            metadata["fault_seed"] = self.fault_seed
        if self.retries is not None:
            metadata["retries"] = (
                self.retries
                if isinstance(self.retries, int)
                else self.retries.max_attempts
            )
        if self._data is not None and self._data.coverage is not None:
            coverage = self._data.coverage
            if not coverage.get("complete", True):
                metadata["crawl_coverage"] = coverage["coverage_fraction"]
                metadata["crawl_failures"] = sum(
                    coverage.get("failure_classes", {}).values()
                )
        return metadata

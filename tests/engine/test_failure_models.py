"""The failure-model verification layer: contract, differential, statistical.

Three lines of defence around :mod:`repro.engine.failures`:

* a **conformance suite** over every model — old and new — holding the
  :class:`FailureModel` contract (1-based indices, ``effective_steps``
  bounds, known domains only, seeded determinism);
* a **differential suite** proving degenerate configurations of the new
  models are *bit-identical* to the existing ``InstanceRemoval`` /
  ``ASRemoval`` curves on both the monolithic and sharded paths — new
  semantics may extend the engine, never drift it;
* a **statistical suite** holding :class:`TemporalChurn`'s bootstrap
  sampler to the empirical outage distributions of
  :mod:`repro.fediverse.uptime` with two-sample KS tests.

Statistical tolerances are documented inline: the KS tests must not
reject at the 1% level (the sampler draws with replacement from the very
sample it is compared against, so rejection means a sampler bug, not bad
luck), and realised downtime lands within a ×[0.5, 2.5] band of the
target (overshoot from the final bootstrap draw and undershoot from
overlap merging are both expected and bounded).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.engine import (
    ASRemoval,
    CountryRemoval,
    HosterRemoval,
    InstanceRemoval,
    ScheduledDowntime,
    StrategySpec,
    TemporalChurn,
    availability_curves,
)
from repro.engine.sharding import toot_ranges
from repro.errors import AnalysisError
from repro.fediverse.geo import HOSTER_OF_ASN, hoster_of_asn
from repro.simtime import MINUTES_PER_DAY

from tests.engine.test_placement import flat_toots

DOMAINS = tuple(f"d{i}.example" for i in range(17))
N_TOOTS = 97
SHARD_SIZES = (1, 13, N_TOOTS, N_TOOTS + 7)

#: KS rejection level for the sampler checks (see module docstring).
KS_ALPHA = 0.01

ASN_OF = {domain: (9370, 16509, 16276, 64512)[i % 4] for i, domain in enumerate(DOMAINS)}
COUNTRY_OF = {domain: ("JP", "US", "FR")[i % 3] for i, domain in enumerate(DOMAINS)}
DOWNTIME = {domain: 0.1 + 0.03 * i for i, domain in enumerate(DOMAINS)}
EMPIRICAL_DAYS = (0.25, 0.5, 1.0, 2.0, 5.0)


def make_models() -> dict[str, object]:
    """Every registered failure model, freshly built from fixed inputs."""
    return {
        "instance": InstanceRemoval(DOMAINS, steps=10, name="instance"),
        "as": ASRemoval(ASN_OF, sorted(set(ASN_OF.values())), steps=4, name="as"),
        "hoster": HosterRemoval(
            {d: hoster_of_asn(a) for d, a in ASN_OF.items()},
            sorted({hoster_of_asn(a) for a in ASN_OF.values()}),
            steps=4,
            name="hoster",
        ),
        "country": CountryRemoval(
            COUNTRY_OF, sorted(set(COUNTRY_OF.values())), steps=3, name="country"
        ),
        "scheduled": ScheduledDowntime(
            {DOMAINS[0]: [(2, 5)], DOMAINS[3]: [(1, 3), (6, 8)]}, steps=8, name="sched"
        ),
        "churn": TemporalChurn(
            DOMAINS, EMPIRICAL_DAYS, DOWNTIME, steps=12, horizon_days=20.0, seed=7,
            name="churn",
        ),
    }


@pytest.fixture(scope="module")
def placements():
    toots = flat_toots(N_TOOTS, list(DOMAINS), seed=5)
    return StrategySpec.random(3, seed=2).build_from_corpus(
        toots.corpus, candidate_domains=list(DOMAINS)
    )


def curve_array(curves, name):
    return np.asarray([p.availability for p in curves[name]], dtype=np.float64)


# -- satellite: duplicate rankings are a hard error -------------------------------


class TestDuplicateRankings:
    def test_instance_removal_rejects_duplicate_domains(self):
        with pytest.raises(AnalysisError, match="duplicate domains"):
            InstanceRemoval(["a.example", "b.example", "a.example"], steps=5)

    def test_as_removal_rejects_duplicate_asns(self):
        with pytest.raises(AnalysisError, match="duplicate ASNs"):
            ASRemoval({"a.example": 1}, [1, 2, 1], steps=5)

    def test_grouped_models_reject_duplicate_groups(self):
        with pytest.raises(AnalysisError, match="duplicate hosters"):
            HosterRemoval({"a.example": "x"}, ["x", "y", "x"], steps=5)
        with pytest.raises(AnalysisError, match="duplicate countries"):
            CountryRemoval({"a.example": "JP"}, ["JP", "US", "JP"], steps=5)

    def test_error_names_the_duplicates(self):
        with pytest.raises(AnalysisError, match="dup.example"):
            InstanceRemoval(["dup.example", "other.example", "dup.example"], steps=5)

    def test_duplicates_beyond_the_step_cutoff_still_rejected(self):
        # the ranking is validated in full: a duplicate past `steps` is
        # just as much a data error as one inside the window
        with pytest.raises(AnalysisError, match="duplicate domains"):
            InstanceRemoval(["a.example", "b.example", "a.example"], steps=1)


# -- the FailureModel contract, every model ---------------------------------------


@pytest.mark.parametrize("key", list(make_models()))
class TestContract:
    def test_effective_steps_bounded_by_steps(self, key):
        model = make_models()[key]
        assert 1 <= model.effective_steps() <= model.steps

    def test_indices_one_based_and_bounded(self, key):
        model = make_models()[key]
        if model.temporal:
            intervals = model.down_intervals()
            for windows in intervals.values():
                for start, stop in windows:
                    assert 1 <= start < stop <= model.effective_steps() + 1
        else:
            index = model.removal_index()
            assert index, "cumulative models must remove something"
            for step in index.values():
                assert isinstance(step, int)
                assert 1 <= step <= model.effective_steps()

    def test_only_known_domains(self, key):
        model = make_models()[key]
        affected = (
            set(model.down_intervals()) if model.temporal else set(model.removal_index())
        )
        assert affected <= set(DOMAINS)

    def test_deterministic_under_fixed_inputs(self, key):
        first, second = make_models()[key], make_models()[key]
        if first.temporal:
            assert first.down_intervals() == second.down_intervals()
        else:
            assert first.removal_index() == second.removal_index()

    def test_repr_names_the_model(self, key):
        model = make_models()[key]
        assert model.name in repr(model) and str(model.steps) in repr(model)


class TestTemporalContract:
    def test_temporal_flag_partitions_the_models(self):
        models = make_models()
        assert {k for k, m in models.items() if m.temporal} == {"scheduled", "churn"}

    def test_removal_index_raises_on_temporal_models(self):
        for model in (m for m in make_models().values() if m.temporal):
            with pytest.raises(AnalysisError, match="temporal"):
                model.removal_index()

    def test_down_matrix_alignment(self, placements):
        model = make_models()["scheduled"]
        lookup = toot_ranges(placements).lookup
        down = model.down_matrix(lookup)
        assert down.shape == (lookup.n_domains, model.effective_steps())
        code = lookup.codes([DOMAINS[0]])[0]
        assert list(np.flatnonzero(down[code]) + 1) == [2, 3, 4]

    def test_unknown_domains_ignored_by_down_matrix(self, placements):
        model = ScheduledDowntime({"ghost.example": [(1, 3)]}, steps=4)
        lookup = toot_ranges(placements).lookup
        assert not model.down_matrix(lookup).any()

    def test_interval_validation(self):
        for bad in ([(0, 2)], [(3, 3)], [(2, 10)]):
            with pytest.raises(AnalysisError, match="outside ticks"):
                ScheduledDowntime({DOMAINS[0]: bad}, steps=8)

    def test_recovery_is_visible_in_the_curve(self, placements):
        # one domain down for ticks 2..3 only: the curve must dip and
        # then return exactly to the baseline — monotone sweeps cannot
        # express this
        model = ScheduledDowntime({DOMAINS[0]: [(2, 4)]}, steps=6, name="blip")
        no_rep = StrategySpec.none().build_from_corpus(
            flat_toots(N_TOOTS, list(DOMAINS), seed=5).corpus
        )
        curve = curve_array(availability_curves(no_rep, [model], shard_size=0), "blip")
        assert curve[0] == 1.0
        assert curve[2] == curve[3] < 1.0
        assert curve[1] == curve[4] == curve[5] == curve[6] == 1.0


# -- differential: degenerate configs are bit-identical ---------------------------


class TestDifferential:
    @pytest.mark.parametrize("shard_size", (0,) + SHARD_SIZES)
    def test_degenerate_downtime_matches_instance_removal(self, placements, shard_size):
        """One new domain down per tick, zero recoveries == InstanceRemoval."""
        steps = 10
        inst = InstanceRemoval(DOMAINS, steps=steps, name="inst")
        sched = ScheduledDowntime(
            {d: [(i + 1, steps + 1)] for i, d in enumerate(DOMAINS[:steps])},
            steps=steps,
            name="sched",
        )
        curves = availability_curves(placements, [inst, sched], shard_size=shard_size)
        assert np.array_equal(curve_array(curves, "inst"), curve_array(curves, "sched"))

    @pytest.mark.parametrize("shard_size", (0,) + SHARD_SIZES)
    def test_identity_hoster_grouping_matches_instance_removal(
        self, placements, shard_size
    ):
        """Every instance its own hoster == plain instance removal."""
        steps = 10
        inst = InstanceRemoval(DOMAINS, steps=steps, name="inst")
        hoster = HosterRemoval({d: d for d in DOMAINS}, DOMAINS, steps=steps, name="host")
        curves = availability_curves(placements, [inst, hoster], shard_size=shard_size)
        assert np.array_equal(curve_array(curves, "inst"), curve_array(curves, "host"))

    @pytest.mark.parametrize("shard_size", (0,) + SHARD_SIZES)
    def test_as_label_grouping_matches_as_removal(self, placements, shard_size):
        """Hoster groups that are exactly the ASNs == plain AS removal."""
        ranking = sorted(set(ASN_OF.values()))
        as_model = ASRemoval(ASN_OF, ranking, steps=4, name="as")
        grouped = HosterRemoval(
            {d: f"AS{a}" for d, a in ASN_OF.items()},
            [f"AS{a}" for a in ranking],
            steps=4,
            name="grouped",
        )
        curves = availability_curves(placements, [as_model, grouped], shard_size=shard_size)
        assert np.array_equal(curve_array(curves, "as"), curve_array(curves, "grouped"))

    def test_country_grouping_is_the_same_machinery(self, placements):
        """CountryRemoval with country==domain labels == InstanceRemoval."""
        steps = 8
        inst = InstanceRemoval(DOMAINS[:steps], steps=steps, name="inst")
        country = CountryRemoval(
            {d: d for d in DOMAINS[:steps]}, DOMAINS[:steps], steps=steps, name="country"
        )
        curves = availability_curves(placements, [inst, country], shard_size=0)
        assert np.array_equal(curve_array(curves, "inst"), curve_array(curves, "country"))

    def test_mixed_cumulative_and_temporal_batch(self, placements):
        """A mixed batch reproduces each model's solo curve exactly."""
        models = [
            InstanceRemoval(DOMAINS, steps=10, name="inst"),
            make_models()["churn"],
            ASRemoval(ASN_OF, sorted(set(ASN_OF.values())), steps=4, name="as"),
        ]
        together = availability_curves(placements, models, shard_size=0)
        for model in models:
            solo = availability_curves(placements, [model], shard_size=0)
            assert np.array_equal(
                curve_array(together, model.name), curve_array(solo, model.name)
            ), model.name

    def test_sakura_siblings_collapse_into_one_hoster(self):
        assert hoster_of_asn(9370) == hoster_of_asn(9371) == "Sakura Internet"
        assert len(set(HOSTER_OF_ASN.values())) == len(HOSTER_OF_ASN) - 1

    def test_unknown_asn_falls_back_to_name_then_label(self):
        assert hoster_of_asn(64512, "Example Net") == "Example Net"
        assert hoster_of_asn(64512) == "AS64512"
        assert hoster_of_asn(None) == "unknown"


# -- statistical: the churn sampler matches the empirics --------------------------


class TestChurnStatistics:
    def test_sampled_durations_match_source_distribution(self):
        """Two-sample KS vs the empirical sample (tolerance: alpha=0.01).

        The sampler bootstraps *with replacement from this very sample*,
        so KS must not reject: a rejection at the 1% level indicates a
        sampler bug (biased draws, truncation), not sampling noise.
        """
        rng = np.random.default_rng(99)
        source = rng.lognormal(mean=-1.0, sigma=1.2, size=400)
        domains = [f"x{i}.example" for i in range(150)]
        churn = TemporalChurn(
            domains,
            source,
            {d: 0.2 for d in domains},
            steps=48,
            horizon_days=30.0,
            seed=17,
        )
        sampled = churn.sampled_outage_days()
        assert sampled.size > 100  # enough draws for the test to have power
        result = stats.ks_2samp(sampled, source)
        assert result.pvalue > KS_ALPHA, (result.statistic, result.pvalue)

    def test_schedule_sampler_matches_fig10_empirics(self, tiny_network):
        """from_schedule draws reproduce the recovered-outage distribution.

        Source: pooled ``continuous_outage_days`` of every *recovered*
        merged outage in the tiny scenario's ground-truth schedule
        (Fig. 10's came-back rule).  Tolerance as above: KS at alpha=0.01.
        """
        schedule = tiny_network.availability
        domains = sorted(schedule.domains())
        source = [
            window.duration / MINUTES_PER_DAY
            for domain in domains
            for window in schedule.merged_outage_windows(domain)
            if window.end < schedule.window_minutes
        ]
        churn = TemporalChurn.from_schedule(schedule, domains, steps=48, seed=11)
        sampled = churn.sampled_outage_days()
        assert sampled.size > 50
        result = stats.ks_2samp(sampled, np.asarray(source))
        assert result.pvalue > KS_ALPHA, (result.statistic, result.pvalue)

    def test_realised_downtime_tracks_targets(self):
        """Mean realised downtime lands in a ×[0.5, 2.5] band of the target.

        Documented tolerance: the last bootstrap draw may overshoot the
        per-domain budget (bounded by one maximal draw) and overlapping
        windows merge, so per-domain fractions scatter around the target;
        the band holds the *mean* across many domains.
        """
        domains = [f"x{i}.example" for i in range(200)]
        target = 0.25
        churn = TemporalChurn(
            domains,
            (0.5, 1.0, 1.5),
            {d: target for d in domains},
            steps=24,
            horizon_days=30.0,
            seed=3,
        )
        realised = churn.realised_downtime_fractions()
        assert len(realised) == len(domains)
        mean_realised = float(np.mean(list(realised.values())))
        assert 0.5 * target <= mean_realised <= 2.5 * target, mean_realised

    def test_zero_downtime_domains_never_fail(self):
        churn = TemporalChurn(
            ["up.example", "down.example"],
            (1.0,),
            {"up.example": 0.0, "down.example": 0.5},
            steps=8,
            horizon_days=10.0,
            seed=1,
        )
        intervals = churn.down_intervals()
        assert "up.example" not in intervals
        assert "down.example" in intervals

    def test_seeds_are_independent_processes(self):
        domains = [f"x{i}.example" for i in range(40)]
        build = lambda seed: TemporalChurn(
            domains, (0.5, 1.0, 2.0), {d: 0.3 for d in domains},
            steps=24, horizon_days=20.0, seed=seed,
        )
        assert build(0).down_intervals() == build(0).down_intervals()
        assert build(0).down_intervals() != build(1).down_intervals()

    def test_validation_errors(self):
        with pytest.raises(AnalysisError, match="non-empty empirical"):
            TemporalChurn(DOMAINS, (), DOWNTIME, steps=4)
        with pytest.raises(AnalysisError, match="positive"):
            TemporalChurn(DOMAINS, (0.0, 1.0), DOWNTIME, steps=4)
        with pytest.raises(AnalysisError, match="horizon"):
            TemporalChurn(DOMAINS, (1.0,), DOWNTIME, steps=4, horizon_days=0.0)
        with pytest.raises(AnalysisError, match=r"\[0, 1\]"):
            TemporalChurn(DOMAINS, (1.0,), {DOMAINS[0]: 1.5}, steps=4)

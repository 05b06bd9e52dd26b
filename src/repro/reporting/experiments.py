"""The experiment registry: every table and figure the paper reports.

Each entry records what the paper shows, which modules implement the
pieces, and which benchmark regenerates it — the machine-readable version
of the per-experiment index in DESIGN.md.  Entries are *executable*:
:meth:`Experiment.run` dispatches to the runner registered in
:mod:`repro.experiments` and returns a structured
:class:`~repro.experiments.results.ExperimentResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.context import ExperimentContext
    from repro.experiments.results import ExperimentResult


@dataclass(frozen=True, slots=True)
class Experiment:
    """One reproducible table or figure from the paper's evaluation."""

    experiment_id: str
    title: str
    paper_claim: str
    modules: tuple[str, ...]
    benchmark: str

    def run(self, ctx: "ExperimentContext") -> "ExperimentResult":
        """Execute this experiment's registered runner against ``ctx``.

        Imported lazily: the reporting layer stays importable without
        pulling the runner modules (and their analysis imports) in.
        """
        from repro.experiments import run_experiment

        return run_experiment(self.experiment_id, ctx)


EXPERIMENTS: dict[str, Experiment] = {
    experiment.experiment_id: experiment
    for experiment in (
        Experiment(
            "fig1",
            "Instances, users and toots over time",
            "Mastodon keeps growing; instances plateau mid-2017 then grow again in 2018.",
            ("repro.core.growth", "repro.crawler.monitor", "repro.datasets.instances"),
            "benchmarks/bench_fig01_growth.py",
        ),
        Experiment(
            "fig2",
            "Open vs closed registrations",
            "Top 5% of instances hold ~90% of users; closed instances are more active per capita.",
            ("repro.core.centralisation",),
            "benchmarks/bench_fig02_open_closed.py",
        ),
        Experiment(
            "fig3",
            "Instance categories",
            "Tech/games dominate instances; adult instances are few but hold most users.",
            ("repro.core.categories",),
            "benchmarks/bench_fig03_categories.py",
        ),
        Experiment(
            "fig4",
            "Prohibited and allowed activities",
            "Spam, pornography and nudity are the most commonly prohibited activities.",
            ("repro.core.categories",),
            "benchmarks/bench_fig04_activities.py",
        ),
        Experiment(
            "fig5",
            "Hosting countries and ASes",
            "Japan, the US and France dominate; three ASes host almost two thirds of users.",
            ("repro.core.hosting",),
            "benchmarks/bench_fig05_hosting.py",
        ),
        Experiment(
            "fig6",
            "Cross-country federation flows",
            "Federated links are homophilous and concentrate on the top five countries.",
            ("repro.core.hosting",),
            "benchmarks/bench_fig06_country_federation.py",
        ),
        Experiment(
            "fig7",
            "Instance downtime CDF",
            "Half of instances have <5% downtime; 11% are down more than half the time.",
            ("repro.core.availability",),
            "benchmarks/bench_fig07_downtime.py",
        ),
        Experiment(
            "fig8",
            "Per-day downtime by instance popularity vs Twitter",
            "Popularity does not predict availability; Twitter 2007 was still more available.",
            ("repro.core.availability", "repro.datasets.twitter"),
            "benchmarks/bench_fig08_downtime_bins.py",
        ),
        Experiment(
            "fig9",
            "Certificate authorities and expiry outages",
            "Let's Encrypt serves >85% of instances; expiries cause correlated outages.",
            ("repro.core.availability", "repro.fediverse.certificates"),
            "benchmarks/bench_fig09_certificates.py",
        ),
        Experiment(
            "fig10",
            "Continuous outage durations",
            "A quarter of instances disappear for at least a day; some for over a month.",
            ("repro.core.availability",),
            "benchmarks/bench_fig10_outage_durations.py",
        ),
        Experiment(
            "fig11",
            "Degree distributions",
            "Follower, federation and Twitter graphs all exhibit power-law degrees.",
            ("repro.core.resilience", "repro.datasets.graphs", "repro.datasets.twitter"),
            "benchmarks/bench_fig11_degree.py",
        ),
        Experiment(
            "fig12",
            "Removing top user accounts",
            "Removing the top 1% of accounts collapses the LCC from ~100% to ~26% of users.",
            ("repro.core.resilience", "repro.engine.resilience"),
            "benchmarks/bench_fig12_user_removal.py",
        ),
        Experiment(
            "fig13",
            "Removing top instances and ASes from the federation graph",
            "Instance removal degrades GF linearly; removing 5 ASes halves the LCC.",
            ("repro.core.resilience", "repro.engine.resilience"),
            "benchmarks/bench_fig13_instance_as_removal.py",
        ),
        Experiment(
            "fig14",
            "Home vs remote toots",
            "78% of instances generate under 10% of the toots on their federated timeline.",
            ("repro.core.federation_analysis",),
            "benchmarks/bench_fig14_home_remote.py",
        ),
        Experiment(
            "fig15",
            "Toot availability without and with subscription replication",
            "Without replication, removing 10 instances erases ~63% of toots; replication helps.",
            ("repro.engine.sweep", "repro.engine.kernels"),
            "benchmarks/bench_fig15_replication.py",
        ),
        Experiment(
            "fig16",
            "Random replication",
            "Random replication outperforms subscription replication for the same budget.",
            ("repro.engine.sweep", "repro.engine.kernels"),
            "benchmarks/bench_fig16_random_replication.py",
        ),
        Experiment(
            "table1",
            "AS-wide failures",
            "Six ASes suffered correlated outages, removing millions of toots temporarily.",
            ("repro.core.availability",),
            "benchmarks/bench_table1_as_failures.py",
        ),
        Experiment(
            "table2",
            "Top-10 instances",
            "The largest instances by home toots, their degrees, operators and hosting.",
            ("repro.core.federation_analysis",),
            "benchmarks/bench_table2_top_instances.py",
        ),
        Experiment(
            "correlated",
            "Correlated hoster and country outages",
            "A handful of hosting providers and countries sit behind most instances "
            "(Figs. 5/13, Tables 1-2); one provider outage removes a correlated set.",
            ("repro.engine.failures", "repro.engine.sweep", "repro.core.hosting"),
            "benchmarks/bench_failure_models.py",
        ),
        Experiment(
            "churn",
            "Availability under temporal churn",
            "Instances go down and come back on the empirical outage distributions "
            "(Figs. 7-10); replication must survive churn, not just monotone removal.",
            ("repro.engine.failures", "repro.engine.sweep", "repro.fediverse.uptime"),
            "benchmarks/bench_temporal_churn.py",
        ),
        Experiment(
            "headline",
            "Section 4.1 concentration headlines",
            "Top 5% of instances hold ~90% of users and ~95% of toots.",
            ("repro.core.centralisation",),
            "benchmarks/bench_headline_centralisation.py",
        ),
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look an experiment up by its id (e.g. ``"fig12"`` or ``"table1"``)."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise AnalysisError(f"unknown experiment: {experiment_id!r}") from exc

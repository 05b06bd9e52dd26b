"""The availability query service: build once, answer forever.

:class:`AvailabilityService` splits the batch pipeline's cost cleanly in
two.  The **one-time build** (per strategy: integer-coded placements
from the corpus columns, a :class:`~repro.engine.sharding.ShardedIncidence`
over the crawl's own shard bounds; per (strategy × failure): every
toot's kill step via :func:`~repro.engine.sharding.kill_vector`, and
the full-corpus curve counted from it) runs exactly once, on first use
or eagerly via :meth:`AvailabilityService.warm`.  **Per-query cost** is
then O(answer): under cumulative removal a toot's fate is one number,
its kill step, so the curve of any toot subset — one user's toots, one
instance's, a home timeline — is a gather of the subset's kill steps and
one :func:`~repro.engine.kernels.losses_per_step` count over them.

Every number the service returns is bit-identical to the equivalent
batch sweep: the removal vectors come from the same
:class:`~repro.engine.incidence.DomainLookup` over the same per-strategy
domain universe, the kill steps from the same per-shard pass, the losses
are the same integer counts, and the curves are the same
``1 - cumsum(losses) / total``.  Whole-corpus and subset answers count
the same kill vector, so they agree by construction.  The differential
suite in ``tests/serve/`` holds the service to exact equality against
:func:`~repro.engine.sweep.availability_curves` and against slicing the
full incidence matrix.

Failure rankings are derived from the stores alone, mirroring the batch
pipeline's :func:`~repro.core.resilience.rank_instances` over the
federation graph:

* ``instances/by_toots`` — graph-store domains (federation node order)
  ranked by the corpus' home-toot counts: exactly the batch ranking.
* ``instances/by_connections`` — ranked by distinct cross-instance
  federation partners: exactly the batch federation-graph degree.
* ``instances/by_users`` — ranked by accounts observed in the follower
  graph.  The batch pipeline ranks by the *monitor's* registered-user
  counts, which no store records, so this ranking is the store-derivable
  analogue rather than an exact twin; exact-match claims are restricted
  to the other two.

AS-level schedules need the monitor's per-instance AS metadata (not in
any store) — register such models explicitly via :meth:`add_failure`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.corpus import CorpusStore, GraphStore
from repro.engine.failures import FailureModel, InstanceRemoval
from repro.engine.incidence import DomainLookup
from repro.engine.kernels import availability_from_losses, losses_per_step
from repro.engine.placement import PlacementArrays
from repro.engine.sharding import DEFAULT_SHARD_SIZE, ShardedIncidence, kill_vector
from repro.engine.sweep import StrategySpec
from repro.errors import AnalysisError

# No query folds an incidence matrix any more, but perfbench's layer
# split wraps these two names in this module; they stay importable here
# and their serve spans read about 0.
from repro.engine.kernels import losses_per_step_batch  # noqa: F401
from repro.engine.sharding import streaming_losses  # noqa: F401

#: Default removal-schedule length, matching the batch experiments'
#: ``INSTANCE_REMOVAL_STEPS`` (fig13/15/16 family).
DEFAULT_REMOVAL_STEPS = 50


def parse_strategy(text: str) -> StrategySpec:
    """A :class:`StrategySpec` from the query grammar.

    ``no-rep`` (aliases ``none``, ``no_rep``) and ``s-rep`` (aliases
    ``subscription``, ``s_rep``) name the deterministic strategies;
    ``n=K`` and ``n=K/seed=S`` name random replication.  The produced
    spec names round-trip: the batch sweeps' default names parse back to
    equivalent specs.
    """
    name = text.strip()
    if name in ("no-rep", "none", "no_rep"):
        return StrategySpec.none()
    if name in ("s-rep", "subscription", "s_rep"):
        return StrategySpec.subscription()
    if name.startswith("n="):
        body, _, seed_part = name.partition("/")
        try:
            n_replicas = int(body[2:])
            seed = 0
            if seed_part:
                if not seed_part.startswith("seed="):
                    raise ValueError(seed_part)
                seed = int(seed_part[5:])
        except ValueError:
            raise AnalysisError(f"unknown placement strategy: {text!r}") from None
        return StrategySpec.random(n_replicas, seed=seed)
    raise AnalysisError(f"unknown placement strategy: {text!r}")


@dataclass(frozen=True)
class _Kills:
    """One (strategy, failure) pair: every toot's kill step and the curve."""

    failure: FailureModel
    kill: np.ndarray
    #: The survivors' value in ``kill`` (None: a float vector, ``inf``).
    sentinel: int | None
    steps: int
    curve: np.ndarray

    def subset_curve(self, rows: np.ndarray) -> np.ndarray:
        """The availability curve of a row subset: a gather and a count."""
        losses = losses_per_step(self.kill[rows], self.steps, self.sentinel)
        return availability_from_losses(losses, rows.size)


@dataclass(frozen=True)
class _Ranking:
    """One failure's replica candidates, best first (``best_placement``)."""

    failure: FailureModel
    #: Corpus domain codes: survivors by name, then latest-removed first.
    codes: np.ndarray
    #: Removal step per domain code; ``inf`` for survivors.
    steps: np.ndarray


class _StrategyState:
    """Everything built once per placement strategy."""

    def __init__(
        self, spec: StrategySpec, arrays: PlacementArrays, sharded: ShardedIncidence
    ) -> None:
        self.spec = spec
        self.arrays = arrays
        self.sharded = sharded
        #: failure name -> kill vector and full-corpus curve.
        self.kills: dict[str, _Kills] = {}
        #: instance domain -> rows holding a copy (from the arrays, unlocked).
        self.holder_rows: dict[str, np.ndarray] = {}


def _group_rows(order: np.ndarray, indptr: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """``order[indptr[g] : indptr[g + 1]]`` for every ``g``, concatenated."""
    starts = indptr[groups]
    lengths = indptr[groups + 1] - starts
    before = np.cumsum(lengths) - lengths
    return order[np.repeat(starts - before, lengths) + np.arange(int(lengths.sum()))]


class AvailabilityService:
    """Interactive availability queries over mmap'd corpus/graph stores.

    Thread-safe: the one-time builds are serialised behind one lock
    (double-checked, so they run exactly once no matter how many threads
    race), and everything a query touches afterwards is read-only numpy
    — concurrent mixed queries are bit-identical to serial execution
    (``tests/serve/test_concurrency.py``).
    """

    def __init__(
        self,
        corpus_dir: str | Path,
        graph_dir: str | Path | None = None,
        *,
        mmap: bool = True,
        removal_steps: int = DEFAULT_REMOVAL_STEPS,
        candidates: Sequence[str] | None = None,
    ) -> None:
        self.corpus = CorpusStore(corpus_dir, mmap=mmap)
        self.graph = GraphStore(graph_dir, mmap=mmap) if graph_dir is not None else None
        self.mmap = bool(mmap)
        self.removal_steps = removal_steps
        #: Candidate targets for random replication.  The batch pipeline
        #: uses the monitor's instance list, which no store records; the
        #: default here is the corpus' full domain universe.  Pass the
        #: batch candidate set explicitly to reproduce seeded draws.
        self.candidates = (
            sorted(str(d) for d in self.corpus.domains.tolist())
            if candidates is None
            else list(candidates)
        )
        #: How many times each one-time build actually ran — the
        #: build-once guarantee, observable.
        self.build_counters: dict[str, int] = {
            "strategies_built": 0,
            "loss_tables_built": 0,
            "row_indexes_built": 0,
        }
        self._started = time.monotonic()
        self._lock = threading.RLock()
        self._failures: dict[str, FailureModel] | None = None
        self._states: dict[str, _StrategyState] = {}
        self._author_lookup: DomainLookup | None = None
        self._author_rows: tuple[np.ndarray, np.ndarray] | None = None
        self._home_domains: list[str] = []
        self._home_lookup: DomainLookup | None = None
        self._home_rows: tuple[np.ndarray, np.ndarray] | None = None
        self._author_of_node: np.ndarray | None = None
        self._follow_index: tuple[np.ndarray, np.ndarray] | None = None
        self._rankings: dict[str, _Ranking] = {}

    # -- the failure registry --------------------------------------------------

    def _ranked_nodes(self) -> list[str]:
        """The instance universe in the batch pipeline's ranking order.

        With a graph store: the store's domain intern order, which equals
        the federation graph's node order (both are first-appearance over
        the same edge stream), so ``sorted(..., reverse=True)`` ties
        break identically to the batch ranking.  Without one: the
        corpus' authoring instances in manifest (sorted-domain) order.
        """
        if self.graph is not None:
            return [str(d) for d in self.graph.domains.tolist()]
        return list(self.corpus.home_toot_counts)

    def failures(self) -> dict[str, FailureModel]:
        """The registered failure models, keyed by name (built once)."""
        with self._lock:
            if self._failures is None:
                self._failures = self._build_failures()
            return self._failures

    def _build_failures(self) -> dict[str, FailureModel]:
        nodes = self._ranked_nodes()
        toots = self.corpus.home_toot_counts
        models = [
            InstanceRemoval(
                sorted(nodes, key=lambda d: toots.get(d, 0), reverse=True),
                steps=self.removal_steps,
                name="instances/by_toots",
            )
        ]
        if self.graph is not None:
            users = self.graph.users_per_instance()
            models.append(
                InstanceRemoval(
                    sorted(nodes, key=lambda d: users.get(d, 0), reverse=True),
                    steps=self.removal_steps,
                    name="instances/by_users",
                )
            )
            degree: dict[str, int] = {}
            for source, target in self.graph.federation_edge_counts():
                degree[source] = degree.get(source, 0) + 1
                degree[target] = degree.get(target, 0) + 1
            models.append(
                InstanceRemoval(
                    sorted(nodes, key=lambda d: degree.get(d, 0), reverse=True),
                    steps=self.removal_steps,
                    name="instances/by_connections",
                )
            )
        return {model.name: model for model in models}

    def add_failure(self, model: FailureModel) -> None:
        """Register an extra cumulative failure model under its name.

        Temporal models answer a different question (a time series, not
        a removal curve) and are rejected; replacing a name drops any
        kill vectors and ranking cached for it.
        """
        if getattr(model, "temporal", False):
            raise AnalysisError(
                "temporal failure models have no per-k availability curve"
            )
        with self._lock:
            self.failures()[model.name] = model

    def failure(self, name: str) -> FailureModel:
        registry = self.failures()
        model = registry.get(name)
        if model is None:
            known = ", ".join(sorted(registry))
            raise AnalysisError(f"unknown failure model {name!r} (known: {known})")
        return model

    # -- one-time builds -------------------------------------------------------

    def state_for(self, strategy: str | StrategySpec) -> _StrategyState:
        """The built (arrays + sharded incidence) state of one strategy."""
        spec = parse_strategy(strategy) if isinstance(strategy, str) else strategy
        with self._lock:
            state = self._states.get(spec.name)
            if state is None:
                build_started = time.perf_counter()
                arrays = PlacementArrays.from_corpus(
                    self.corpus,
                    spec.kind,
                    graphs=self.graph,
                    candidate_domains=self.candidates,
                    n_replicas=spec.n_replicas,
                    seed=spec.seed,
                    weights=dict(spec.weights) if spec.weights is not None else None,
                )
                if arrays.source_bounds:
                    sharded = ShardedIncidence.from_arrays(
                        arrays, bounds=arrays.source_bounds
                    )
                else:
                    sharded = ShardedIncidence.from_arrays(arrays, DEFAULT_SHARD_SIZE)
                state = _StrategyState(spec, arrays, sharded)
                self._states[spec.name] = state
                self.build_counters["strategies_built"] += 1
                obs.metrics().observe(
                    "repro_serve_build_seconds",
                    time.perf_counter() - build_started,
                    kind="strategy",
                )
            return state

    def _kills_for(self, strategy: str | StrategySpec, failure_name: str) -> _Kills:
        """The kill vector and curve of one (strategy, failure) pair.

        Built once per pair — per failure *object*, since the domain
        universe is per-strategy and a replaced failure name must not
        answer from the old schedule.
        """
        state = self.state_for(strategy)
        failure = self.failure(failure_name)
        with self._lock:
            entry = state.kills.get(failure.name)
            if entry is None or entry.failure is not failure:
                build_started = time.perf_counter()
                steps = failure.effective_steps()
                column = state.sharded.lookup.removal_vector(
                    failure.removal_index(), steps
                )
                kill, sentinel = kill_vector(state.sharded, column)
                curve = availability_from_losses(
                    losses_per_step(kill, steps, sentinel), state.sharded.n_toots
                )
                entry = _Kills(failure, kill, sentinel, steps, curve)
                state.kills[failure.name] = entry
                self.build_counters["loss_tables_built"] += 1
                obs.metrics().observe(
                    "repro_serve_build_seconds",
                    time.perf_counter() - build_started,
                    kind="loss_table",
                )
            return entry

    def curve(self, strategy: str | StrategySpec, failure_name: str) -> np.ndarray:
        """The full-corpus availability curve (built once per pair).

        Index ``k`` is the availability after ``k`` removals — the same
        floats :func:`~repro.engine.sweep.availability_curves` returns as
        :class:`AvailabilityPoint` lists: the losses counted from the
        pair's kill vector equal the batch fold's loss table.
        """
        return self._kills_for(strategy, failure_name).curve

    def warm(self, strategies: Sequence[str] | None = None) -> None:
        """Run every one-time build eagerly (default: all no-arg strategies)."""
        if strategies is None:
            strategies = ["no-rep", "s-rep"] if self.graph is not None else ["no-rep"]
        for strategy in strategies:
            for failure_name in list(self.failures()):
                self.curve(strategy, failure_name)
        self._rows_by_author()
        self._rows_by_home()
        if self.graph is not None:
            self._followed_index()
        for model in list(self.failures().values()):
            self._ranking(model)

    # -- row indexes (who authored / is homed where) ---------------------------

    def _grouped_rows(self, column: str, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
        """``(order, indptr)`` grouping corpus rows by an integer column.

        ``order[indptr[g] : indptr[g + 1]]`` are the rows of group ``g``
        in ascending row order (the argsort is stable).
        """
        codes = self.corpus.column(column).astype(np.int64)
        order = np.argsort(codes, kind="stable").astype(np.int64)
        counts = np.bincount(codes, minlength=n_groups)
        indptr = np.zeros(n_groups + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return order, indptr

    def _rows_by_author(self) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            if self._author_rows is None:
                self._author_lookup = DomainLookup(
                    [str(a) for a in self.corpus.authors.tolist()]
                )
                self._author_rows = self._grouped_rows(
                    "author_code", self._author_lookup.n_domains
                )
                self.build_counters["row_indexes_built"] += 1
            return self._author_rows

    def _rows_by_home(self) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            if self._home_rows is None:
                self._home_domains = [str(d) for d in self.corpus.domains.tolist()]
                self._home_lookup = DomainLookup(self._home_domains)
                self._home_rows = self._grouped_rows(
                    "home_code", self._home_lookup.n_domains
                )
                self.build_counters["row_indexes_built"] += 1
            return self._home_rows

    def _followed_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(followed node codes grouped by follower, per-follower indptr)``.

        Built once, together with the map from graph node code to corpus
        author code (``-1`` for accounts with no crawled toots) that
        keeps timeline queries integer-only.
        """
        if self.graph is None:
            raise AnalysisError("timeline queries need a graph store (--graph)")
        with self._lock:
            if self._follow_index is None:
                followers: list[np.ndarray] = []
                followed: list[np.ndarray] = []
                for _, src, dst in self.graph.iter_edges():
                    followers.append(np.asarray(src, dtype=np.int64))
                    followed.append(np.asarray(dst, dtype=np.int64))
                if followers:
                    src_all = np.concatenate(followers)
                    dst_all = np.concatenate(followed)
                else:
                    src_all = np.empty(0, dtype=np.int64)
                    dst_all = np.empty(0, dtype=np.int64)
                order = np.argsort(src_all, kind="stable")
                counts = np.bincount(src_all, minlength=self.graph.n_nodes)
                indptr = np.zeros(self.graph.n_nodes + 1, dtype=np.int64)
                np.cumsum(counts, out=indptr[1:])
                self._rows_by_author()
                self._author_of_node = self._author_lookup.codes(
                    self.graph.handles.astype(np.str_)
                )
                self.graph.node_index()
                self._follow_index = (dst_all[order], indptr)
                self.build_counters["row_indexes_built"] += 1
            return self._follow_index

    def _ranking(self, model: FailureModel) -> _Ranking:
        """Replica candidates for ``best_placement`` under one failure (cached)."""
        with self._lock:
            ranking = self._rankings.get(model.name)
            if ranking is None or ranking.failure is not model:
                self._rows_by_home()
                steps = self._home_lookup.removal_vector(
                    model.removal_index(), model.effective_steps()
                )
                names = np.asarray(self._home_domains, dtype=np.str_)
                # survivors (inf) first, then latest-removed; names break ties
                codes = np.lexsort((names, -steps)).astype(np.int64)
                ranking = _Ranking(model, codes, steps)
                self._rankings[model.name] = ranking
            return ranking

    def rows_authored_by(self, user: str) -> np.ndarray:
        """Corpus rows of the toots ``user`` authored (ascending)."""
        order, indptr = self._rows_by_author()
        code = int(self._author_lookup.codes([user])[0])
        if code < 0:
            raise AnalysisError(f"unknown author {user!r}")
        return order[indptr[code] : indptr[code + 1]]

    def rows_homed_on(self, instance: str) -> np.ndarray:
        """Corpus rows of the toots homed on ``instance`` (ascending)."""
        order, indptr = self._rows_by_home()
        code = int(self._home_lookup.codes([instance])[0])
        if code < 0:
            raise AnalysisError(f"unknown instance {instance!r}")
        return order[indptr[code] : indptr[code + 1]]

    def rows_held_on(self, strategy: str | StrategySpec, instance: str) -> np.ndarray:
        """Rows with a copy on ``instance`` under ``strategy`` (cached).

        Computed from the placement arrays before any lock is taken, so
        a first ``held_on`` query holds up no other query; threads that
        race on one instance compute equal rows and keep the first.
        Empty answers are not cached: the name comes from the client,
        and caching every unknown one would grow the cache without bound.
        """
        state = self.state_for(strategy)
        rows = state.holder_rows.get(instance)
        if rows is None:
            rows = state.arrays.rows_holding(instance)
            if rows.size:
                rows = state.holder_rows.setdefault(instance, rows)
        return rows

    def timeline_rows(self, user: str) -> np.ndarray:
        """Rows of ``user``'s timeline: own toots plus followed authors'."""
        if self.graph is None:
            raise AnalysisError("timeline queries need a graph store (--graph)")
        followed, indptr = self._followed_index()
        order, author_indptr = self._rows_by_author()
        authors = self._author_lookup.codes([user])
        node = self.graph.node_index().get(user)
        if node is not None:
            authors = np.concatenate(
                (authors, self._author_of_node[followed[indptr[node] : indptr[node + 1]]])
            )
        authors = np.unique(authors[authors >= 0])
        if authors.size == 0:
            raise AnalysisError(f"no toots in the timeline of {user!r}")
        # distinct authors' rows are disjoint, so sorting leaves them unique
        return np.sort(_group_rows(order, author_indptr, authors))

    # -- queries ---------------------------------------------------------------

    @staticmethod
    def _at(curve: np.ndarray, k: int) -> float:
        """The curve value after ``k`` removals (clamped past the schedule)."""
        if k < 0:
            raise AnalysisError(
                f"the number of removed entities cannot be negative (got {k})"
            )
        return float(curve[min(k, curve.size - 1)])

    def availability(
        self,
        *,
        user: str | None = None,
        instance: str | None = None,
        held_on: str | None = None,
        strategy: str | StrategySpec = "no-rep",
        failure: str = "instances/by_toots",
        k: int,
    ) -> dict[str, object]:
        """Availability after ``k`` removals, over a selectable toot subset.

        Exactly one of ``user`` (toots the user authored), ``instance``
        (toots homed there) or ``held_on`` (toots with a copy there,
        strategy-dependent) selects a subset; none of them selects the
        whole corpus — bit-identical to the batch sweep's curve at ``k``.
        """
        selectors = [s for s in (user, instance, held_on) if s is not None]
        if len(selectors) > 1:
            raise AnalysisError("pass at most one of user=, instance=, held_on=")
        spec = parse_strategy(strategy) if isinstance(strategy, str) else strategy
        if user is not None:
            rows = self.rows_authored_by(user)
            subject: dict[str, object] = {"user": user}
        elif instance is not None:
            rows = self.rows_homed_on(instance)
            if rows.size == 0:
                raise AnalysisError(f"no toot is homed on {instance!r}")
            subject = {"instance": instance}
        elif held_on is not None:
            rows = self.rows_held_on(spec, held_on)
            if rows.size == 0:
                raise AnalysisError(
                    f"no toot has a copy on {held_on!r} under {spec.name!r}"
                )
            subject = {"held_on": held_on}
        else:
            rows = None
            subject = {"scope": "corpus"}
        kills = self._kills_for(spec, failure)
        if rows is None:
            value = self._at(kills.curve, k)
            n_toots = self.corpus.n_toots
        else:
            value = self._at(kills.subset_curve(rows), k)
            n_toots = int(rows.size)
        return {
            **subject,
            "strategy": spec.name,
            "failure": failure,
            "k": int(k),
            "toots": n_toots,
            "availability": value,
        }

    def timeline_availability(
        self,
        user: str,
        *,
        strategy: str | StrategySpec = "no-rep",
        failure: str = "instances/by_toots",
        k: int,
    ) -> dict[str, object]:
        """Availability of ``user``'s home timeline after ``k`` removals."""
        spec = parse_strategy(strategy) if isinstance(strategy, str) else strategy
        rows = self.timeline_rows(user)
        value = self._at(self._kills_for(spec, failure).subset_curve(rows), k)
        return {
            "user": user,
            "strategy": spec.name,
            "failure": failure,
            "k": int(k),
            "toots": int(rows.size),
            "availability": value,
        }

    def best_placement(
        self,
        *,
        home: str,
        n_replicas: int = 1,
        failure: str = "instances/by_toots",
    ) -> dict[str, object]:
        """The replica targets that keep a new toot alive the longest.

        Candidates are ranked survivors-first (domains the schedule never
        removes, name ascending), then latest-removed; the toot's kill
        step is ``None`` while any holder survives the whole schedule.
        """
        if n_replicas < 0:
            raise AnalysisError(
                f"the number of replicas cannot be negative (got {n_replicas})"
            )
        self._rows_by_home()
        home_code = int(self._home_lookup.codes([home])[0])
        if home_code < 0:
            raise AnalysisError(f"unknown instance {home!r}")
        ranking = self._ranking(self.failure(failure))
        replicas = ranking.codes[: n_replicas + 1]
        replicas = replicas[replicas != home_code][:n_replicas]
        holder_steps = ranking.steps[np.append(replicas, home_code)]
        if np.isinf(holder_steps).any():
            kill_step: int | None = None
        else:
            kill_step = int(holder_steps.max())
        return {
            "home": home,
            "failure": failure,
            "replicas": [self._home_domains[code] for code in replicas.tolist()],
            "kill_step": kill_step,
        }

    def uptime_seconds(self) -> float:
        """Seconds since the service object was constructed."""
        return round(time.monotonic() - self._started, 3)

    def meta(self) -> dict[str, object]:
        """Service shape: stores, sizes, warmed strategies, known failures.

        ``uptime_seconds`` is the one volatile key — strip it before
        comparing two meta answers for equality.
        """
        return {
            "corpus": str(self.corpus.path),
            "graph": str(self.graph.path) if self.graph is not None else None,
            "mmap": self.mmap,
            "n_toots": self.corpus.n_toots,
            "n_domains": int(self.corpus.domains.shape[0]),
            "strategies": sorted(self._states),
            "failures": sorted(self.failures()),
            "removal_steps": self.removal_steps,
            "build_counters": dict(self.build_counters),
            "uptime_seconds": self.uptime_seconds(),
        }

    def stats(self) -> dict[str, object]:
        """Observability snapshot: builds, uptime, and every live metric.

        The metric families come straight from the process-wide registry
        (:func:`repro.obs.metrics`), so per-endpoint HTTP latencies and
        build timings recorded by the transports show up here too.
        """
        return {
            "build_counters": dict(self.build_counters),
            "uptime_seconds": self.uptime_seconds(),
            "metrics": obs.metrics().snapshot(),
        }


#: Per-verb allowed query parameters (anything else is a typo).
_VERB_PARAMS: Mapping[str, frozenset[str]] = {
    "availability": frozenset({"user", "instance", "held_on", "strategy", "failure", "k"}),
    "timeline": frozenset({"user", "strategy", "failure", "k"}),
    "best_placement": frozenset({"home", "n_replicas", "failure"}),
    "meta": frozenset(),
    "stats": frozenset(),
}


def _int_param(params: Mapping[str, str], name: str) -> int:
    raw = params[name]
    try:
        return int(raw)
    except ValueError:
        raise AnalysisError(f"query parameter {name!r} must be an integer, got {raw!r}") from None


def handle_query(
    service: AvailabilityService, verb: str, params: Mapping[str, str]
) -> dict[str, object]:
    """Dispatch one (verb, string-parameters) query — the shared core of
    the HTTP and stdin transports.  Raises :class:`AnalysisError` /
    :class:`~repro.errors.DatasetError` on bad input; transports turn
    those into error payloads.
    """
    allowed = _VERB_PARAMS.get(verb)
    if allowed is None:
        known = ", ".join(sorted(_VERB_PARAMS))
        raise AnalysisError(f"unknown query verb {verb!r} (known: {known})")
    unknown = set(params) - allowed
    if unknown:
        raise AnalysisError(
            f"unknown parameters for {verb!r}: {', '.join(sorted(unknown))}"
        )
    if verb == "meta":
        return service.meta()
    if verb == "stats":
        return service.stats()
    if verb == "best_placement":
        if "home" not in params:
            raise AnalysisError("best_placement needs home=<instance>")
        return service.best_placement(
            home=params["home"],
            n_replicas=_int_param(params, "n_replicas") if "n_replicas" in params else 1,
            failure=params.get("failure", "instances/by_toots"),
        )
    if "k" not in params:
        raise AnalysisError(f"{verb} needs k=<removals>")
    common = {
        "strategy": params.get("strategy", "no-rep"),
        "failure": params.get("failure", "instances/by_toots"),
        "k": _int_param(params, "k"),
    }
    if verb == "timeline":
        if "user" not in params:
            raise AnalysisError("timeline needs user=<handle>")
        return service.timeline_availability(params["user"], **common)
    return service.availability(
        user=params.get("user"),
        instance=params.get("instance"),
        held_on=params.get("held_on"),
        **common,
    )

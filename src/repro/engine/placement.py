"""Vectorised placement builders: integer-coded placements for the engine.

The Figs. 15-16 experiments build one placement per strategy before any
failure is simulated.  This module builds them with whole-array
operations over integer columns, never one Python object per toot:

* :class:`PlacementArrays` — the integer-coded placement backend: one
  home-domain code per toot plus a CSR-style ``(replica_indices,
  replica_indptr)`` pair of replica codes.  The engine's kill kernel
  (:mod:`repro.engine.kernels`) folds it directly, range by range.
  :meth:`PlacementArrays.from_corpus` is the one way to build it: the
  per-toot home and author codes come from a columnar corpus, shard by
  shard (the ``build_*_from_corpus`` builders after the class; the
  corpus package itself imports nothing from the engine), and the
  replica arrays from the two cores below;
* :func:`subscription_arrays_from_columns` — the author→follower-domain
  table (:func:`follower_domain_sets`, one pass over the follower
  graph's edges), then pure array expansion per toot;
* :func:`random_arrays_from_columns` — one batched draw for every toot,
  built on Gumbel top-k sampling: perturbing the log-weights with i.i.d.
  Gumbel noise and keeping the k largest keys per row samples without
  replacement with probabilities proportional to the weights — exactly
  the distribution of successive renormalised draws (Plackett-Luce),
  which is also what ``rng.choice(..., replace=False, p=...)``
  implements one toot at a time.  The hot path materialises that draw
  *lazily*: the descending order of Gumbel-perturbed keys is the arrival
  order of an i.i.d. categorical race, so drawing a few weighted rounds
  per row and keeping the first k distinct candidates yields the
  Gumbel top-k set with an ``n×O(k)`` footprint instead of ``n×m``;
  rows that do not resolve within the oversampled rounds fall back to
  the dense ``n_bad×m`` Gumbel key matrix (uniform keys in the
  unweighted case), which is exact for any weight skew.  Most rows'
  first k rounds are already distinct and are kept after ``k(k-1)/2``
  column compares; only the rest are searched for repeats, with one
  row-wise sort.  Weighted rounds map their uniform variates to
  candidates through an exact 4,096-bucket guide table instead of a
  binary search per variate (:func:`_batch_distinct_draws`).

Invariants every builder guarantees (and :meth:`PlacementArrays.validate`
checks): replica codes are distinct within a row and never equal the
row's home code, so ``holders(t) = {home[t]} ∪ replicas[t]`` has
``1 + replica_count`` members.

The pure-Python reference loops live on in
``tests/reference/replication.py``; the
differential suite (``tests/engine/test_placement.py``) holds the
corpus-built placements to exact equality where the strategy is
deterministic and to equivalent replica-count distributions for the
random draws.  Note the batched draw consumes the RNG stream in a
different order than the legacy one-``rng.choice``-per-toot loop, so
seeded *random* placements legitimately differ from the legacy loop
toot-by-toot while remaining deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import AnalysisError, DatasetError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.graph import GraphStore
    from repro.corpus.store import CorpusStore

#: Row-chunk sizing for the batched draws: keep the per-chunk key matrix
#: around ~32 MB of float64 so 67M-toot runs stay memory-bounded.  The
#: chunk size is a pure function of the candidate count, never of the
#: machine, so a seed always yields the same placements.
_CHUNK_ELEMENTS = 4_000_000

#: Buckets of the guide table that maps a weighted draw's uniform
#: variate to its candidate (:func:`_weighted_draws`).  A power of two,
#: so ``u * _GUIDE_BUCKETS`` is exact and its floor names ``u``'s bucket.
_GUIDE_BUCKETS = 4096


@dataclass(eq=False)
class PlacementArrays:
    """Integer-coded placements: per-toot home codes plus replica CSR arrays.

    ``domains`` is the sorted domain universe (homes plus every possible
    replica target); ``home[t]`` indexes into it, and
    ``replica_indices[replica_indptr[t]:replica_indptr[t + 1]]`` are the
    codes of toot ``t``'s replicas beyond its home instance.

    ``toot_urls`` is any sequence; corpus-built backends hold the lazy
    :class:`~repro.corpus.store.CorpusUrls` view, so the scale paths
    (which only ever read codes) never materialise the URL strings.
    ``source_bounds`` carries the corpus shard boundaries; by default
    every fold runs over exactly those toot ranges
    (:func:`repro.engine.sharding.toot_ranges`).
    """

    strategy: str
    toot_urls: Sequence[str]
    domains: tuple[str, ...]
    home: np.ndarray
    replica_indices: np.ndarray
    replica_indptr: np.ndarray
    source_bounds: tuple[tuple[int, int], ...] | None = None

    @property
    def n_toots(self) -> int:
        return len(self.toot_urls)

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    def replica_counts(self) -> np.ndarray:
        """Replicas beyond the home instance, per toot (home never counted)."""
        return np.diff(self.replica_indptr)

    def replication_summary(self) -> dict[str, float]:
        """Share of toots with no replica and with more than ten replicas.

        The paper reports that under subscription replication 9.7% of
        toots have no replica while 23% have more than ten.
        """
        counts = self.replica_counts()
        if counts.size == 0:
            raise AnalysisError("the placement map is empty")
        return {
            "mean_replicas": float(np.mean(counts)),
            "share_without_replica": int((counts == 0).sum()) / counts.size,
            "share_with_more_than_10": int((counts > 10).sum()) / counts.size,
        }

    def domain_replica_load(self) -> np.ndarray:
        """How many replicas landed on each domain (aligned with ``domains``)."""
        return np.bincount(self.replica_indices, minlength=self.n_domains)

    def rows_incidence(self, rows: np.ndarray) -> "sparse.csr_matrix":
        """The incidence CSR of a subset of toots, straight from the codes.

        Row ``i`` of the result holds toot ``rows[i]``'s home code and
        its replica codes, sorted; O(subset nnz) work and memory.  No
        fold builds a matrix: this is the one CSR builder left in the
        engine, kept because perfbench's layer split times it by name.
        """
        from scipy import sparse

        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or rows.size == 0:
            raise AnalysisError("rows must be a non-empty 1-D index array")
        if rows.min() < 0 or rows.max() >= self.n_toots:
            raise AnalysisError("row indices fall outside the placement arrays")
        replica_indptr = self.replica_indptr
        counts = (replica_indptr[rows + 1] - replica_indptr[rows]).astype(np.int64)
        lengths = counts + 1  # +1 for the home copy
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int64)
        home_slots = indptr[:-1]
        indices[home_slots] = self.home[rows]
        replica_slots = np.ones(total, dtype=bool)
        replica_slots[home_slots] = False
        replica_cum = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=replica_cum[1:])
        positions = (
            np.repeat(
                replica_indptr[rows].astype(np.int64) - replica_cum[:-1], counts
            )
            + np.arange(int(replica_cum[-1]), dtype=np.int64)
        )
        indices[replica_slots] = self.replica_indices[positions]
        matrix = sparse.csr_matrix(
            (np.ones(total, dtype=np.int8), indices, indptr),
            shape=(rows.size, self.n_domains),
        )
        matrix.sort_indices()
        return matrix

    def rows_holding(self, domain: str) -> np.ndarray:
        """Row indices of every toot with a copy on ``domain`` (ascending).

        Straight from the codes: one compare over the home codes, one
        over the replica codes, and a ``searchsorted`` on
        ``replica_indptr`` that maps each replica hit to its row.  A
        row's home and replicas are distinct, so the two hit sets are
        disjoint.  An unknown domain gives an empty array.
        """
        try:
            code = self.domains.index(domain)
        except ValueError:
            return np.empty(0, dtype=np.int64)
        homed = np.flatnonzero(self.home == code)
        hits = np.flatnonzero(self.replica_indices == code)
        held = np.searchsorted(self.replica_indptr, hits, side="right") - 1
        return np.sort(np.concatenate((homed, held)).astype(np.int64))

    def validate(self) -> "PlacementArrays":
        """Check the structural invariants; returns self for chaining."""
        n = self.n_toots
        if self.home.shape != (n,) or self.replica_indptr.shape != (n + 1,):
            raise AnalysisError("placement arrays have inconsistent shapes")
        if n and (self.home.min() < 0 or self.home.max() >= self.n_domains):
            raise AnalysisError("home codes fall outside the domain universe")
        if self.replica_indices.size and (
            self.replica_indices.min() < 0
            or self.replica_indices.max() >= self.n_domains
        ):
            raise AnalysisError("replica codes fall outside the domain universe")
        lengths = np.diff(self.replica_indptr)
        if lengths.size and lengths.min() < 0:
            raise AnalysisError("replica index pointers must be non-decreasing")
        if int(self.replica_indptr[-1]) != self.replica_indices.size:
            raise AnalysisError("replica index pointers do not cover the indices")
        row_ids = np.repeat(np.arange(n), lengths)
        if np.any(self.replica_indices == self.home[row_ids]):
            raise AnalysisError("replicas must not duplicate the home instance")
        if self.replica_indices.size:
            # distinct within a row: sort per row, adjacent equal values in
            # the same row are duplicates
            order = np.lexsort((self.replica_indices, row_ids))
            sorted_indices = self.replica_indices[order]
            sorted_rows = row_ids[order]
            duplicate = (sorted_rows[1:] == sorted_rows[:-1]) & (
                sorted_indices[1:] == sorted_indices[:-1]
            )
            if duplicate.any():
                raise AnalysisError("replica codes must be distinct within a row")
        return self

    @classmethod
    def from_corpus(
        cls,
        store: "CorpusStore",
        kind: str = "none",
        *,
        graphs: "GraphDataset | GraphStore | None" = None,
        candidate_domains: Sequence[str] | None = None,
        n_replicas: int = 0,
        seed: int = 0,
        weights: Mapping[str, float] | None = None,
    ) -> "PlacementArrays":
        """Build a placement backend straight from a columnar corpus.

        ``kind`` selects the strategy (``"none"`` / ``"subscription"`` /
        ``"random"``, mirroring :class:`~repro.engine.sweep.StrategySpec`).
        Home codes come from remapping the store's interned home column
        shard by shard into the sorted domain universe; the replica
        arrays come from :func:`subscription_arrays_from_columns` and
        :func:`random_arrays_from_columns`.
        """
        if kind == "none":
            return build_no_replication_from_corpus(store)
        if kind == "subscription":
            if graphs is None:
                raise AnalysisError("subscription replication needs the graphs dataset")
            return build_subscription_replication_from_corpus(store, graphs)
        if kind == "random":
            if candidate_domains is None:
                raise AnalysisError("random replication needs candidate domains")
            return build_random_replication_from_corpus(
                store, candidate_domains, n_replicas, seed=seed, weights=weights
            )
        raise AnalysisError(f"unknown placement strategy kind: {kind!r}")


# -- building from a corpus ------------------------------------------------------
#
# The per-toot inputs are the interned ``home_code`` / ``author_code``
# columns of a corpus store, loaded shard by shard and remapped into the
# sorted domain universe with one gather per shard; no ``TootRecord`` is
# ever built.  The corpus keeps the crawl's de-dup order (instances sorted
# by domain, first-seen URL wins), so the placements, seeded draws
# included, are a pure function of the crawl and the strategy.  Every
# builder stamps the corpus shard boundaries into ``source_bounds``, so by
# default every fold runs over exactly the shards the crawl wrote.


def _require_toots(store: "CorpusStore") -> None:
    if store.n_toots == 0:
        raise DatasetError("the corpus holds no toots")


def _remapped_homes(
    store: "CorpusStore", extra_domains: Sequence[str] = ()
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Per-toot home codes in the sorted domain universe, plus the universe.

    The universe is ``sorted(home domains in use ∪ extra_domains)``, and
    the per-shard remap is one gather through an intern-code →
    universe-code table.  Each shard's ``home_code`` column is read
    once: it marks the codes in use, then feeds the gather.
    """
    table = store.domains
    used = np.zeros(table.shape[0], dtype=bool)
    shard_homes = [
        store.shard_column(index, "home_code") for index in range(store.n_shards)
    ]
    for codes in shard_homes:
        used[codes] = True
    home_domains = set(table[used].tolist())
    domains = tuple(sorted(home_domains.union(extra_domains)))
    code = {domain: j for j, domain in enumerate(domains)}
    remap = np.full(table.shape[0], -1, dtype=np.int64)
    for intern_code in np.nonzero(used)[0]:
        remap[intern_code] = code[str(table[intern_code])]
    home = np.empty(store.n_toots, dtype=np.int64)
    for (start, stop), codes in zip(store.shard_bounds(), shard_homes):
        home[start:stop] = remap[codes]
    return home, domains


def build_no_replication_from_corpus(store: "CorpusStore") -> PlacementArrays:
    """Each toot lives only on its author's home instance."""
    _require_toots(store)
    home, domains = _remapped_homes(store)
    return PlacementArrays(
        strategy="no-replication",
        toot_urls=store.urls(),
        domains=domains,
        home=home,
        replica_indices=np.empty(0, dtype=np.int64),
        replica_indptr=np.zeros(store.n_toots + 1, dtype=np.int64),
        source_bounds=tuple(store.shard_bounds()),
    )


def build_random_replication_from_corpus(
    store: "CorpusStore",
    candidate_domains: Sequence[str],
    n_replicas: int,
    seed: int = 0,
    weights: Mapping[str, float] | None = None,
) -> PlacementArrays:
    """Each toot is replicated onto ``n_replicas`` random instances.

    One batched Gumbel top-k draw — same seed, same corpus, same
    placements, bit for bit.
    """
    candidates = validated_candidates(candidate_domains, n_replicas)
    _require_toots(store)
    home, domains = _remapped_homes(store, candidates)
    return random_arrays_from_columns(
        store.urls(),
        home,
        domains,
        candidates,
        n_replicas,
        seed=seed,
        weights=weights,
        source_bounds=tuple(store.shard_bounds()),
    )


def build_subscription_replication_from_corpus(
    store: "CorpusStore", graphs: "GraphDataset | GraphStore"
) -> PlacementArrays:
    """Each toot is replicated to the instances hosting the author's followers.

    The corpus ``author_code`` column already encodes authors in
    first-appearance order, so the per-author follower table expands
    over it directly.  ``graphs`` may be the networkx-backed
    dataset or an on-disk :class:`~repro.corpus.graph.GraphStore`;
    :func:`follower_domain_sets` dispatches and both produce the same
    table, so the placements are identical either way.
    """
    _require_toots(store)
    follower_domains = follower_domain_sets(store.authors.tolist(), graphs)
    extra = set().union(*follower_domains.values()) if follower_domains else set()
    home, domains = _remapped_homes(store, tuple(extra))
    toot_author = store.column("author_code").astype(np.int64)
    return subscription_arrays_from_columns(
        store.urls(),
        home,
        domains,
        toot_author,
        follower_domains,
        source_bounds=tuple(store.shard_bounds()),
    )


# -- shared encoding helpers -----------------------------------------------------


def _encode(values: Sequence[str], code: Mapping[str, int]) -> np.ndarray:
    return np.fromiter(
        map(code.__getitem__, values), dtype=np.int64, count=len(values)
    )


def follower_domain_sets(
    authors: "Iterable[str]", graphs: "GraphDataset | GraphStore"
) -> dict[str, set[str]]:
    """Author → follower-domain sets in **one pass over the graph's edges**.

    ``authors`` may contain duplicates; keys keep first-appearance
    order, which is the corpus ``author_code`` order the subscription
    builder expands over.

    ``graphs`` is either the networkx-backed
    :class:`~repro.datasets.graphs.GraphDataset` or an on-disk
    :class:`~repro.corpus.graph.GraphStore`, whose integer edge shards
    answer the same question without a networkx graph in memory — the
    store computes the identical mapping itself.
    """
    columnar = getattr(graphs, "follower_domain_sets", None)
    if callable(columnar):
        return columnar(list(authors))
    follower_graph = graphs.follower_graph
    follower_domains: dict[str, set[str]] = {author: set() for author in authors}
    nodes = follower_graph.nodes
    for follower, followed in follower_graph.edges():
        target = follower_domains.get(followed)
        if target is not None:
            domain = nodes[follower].get("domain")
            if domain:
                target.add(domain)
    return follower_domains


def subscription_arrays_from_columns(
    urls: Sequence[str],
    home: np.ndarray,
    domains: tuple[str, ...],
    toot_author: np.ndarray,
    follower_domains: Mapping[str, set[str]],
    source_bounds: tuple[tuple[int, int], ...] | None = None,
) -> PlacementArrays:
    """The subscription expansion over integer columns.

    ``home`` indexes ``domains`` (the sorted universe of homes plus
    every follower domain); ``toot_author`` indexes the keys of
    ``follower_domains`` in iteration order (see
    :func:`build_subscription_replication_from_corpus`).
    """
    code = {domain: j for j, domain in enumerate(domains)}

    # per-author replica arrays (CSR over the unique authors)
    authors = list(follower_domains)
    author_counts = np.fromiter(
        (len(follower_domains[author]) for author in authors),
        dtype=np.int64,
        count=len(authors),
    )
    author_indptr = np.zeros(len(authors) + 1, dtype=np.int64)
    np.cumsum(author_counts, out=author_indptr[1:])
    author_flat = np.fromiter(
        (
            code[domain]
            for author in authors
            for domain in sorted(follower_domains[author])
        ),
        dtype=np.int64,
        count=int(author_indptr[-1]),
    )

    # expand the per-author table to per-toot rows with pure array ops,
    # chunked over toot ranges so the transient expansion arrays stay
    # bounded (the xlarge corpus expands to 120M+ replica rows; row-wise
    # ops make chunking exact)
    n = len(urls)
    lengths = author_counts[toot_author]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    kept_lengths = np.zeros(n, dtype=np.int64)
    replica_chunks = []
    chunk_rows = 1_000_000
    for lo in range(0, n, chunk_rows):
        hi = min(n, lo + chunk_rows)
        seg_lengths = lengths[lo:hi]
        seg_total = int(indptr[hi] - indptr[lo])
        if seg_total == 0:
            continue
        starts = np.repeat(author_indptr[:-1][toot_author[lo:hi]], seg_lengths)
        seg_indptr = indptr[lo:hi] - indptr[lo]
        within = np.arange(seg_total, dtype=np.int64) - np.repeat(seg_indptr, seg_lengths)
        flat = author_flat[starts + within]
        # drop follower domains equal to the toot's home (the legacy
        # frozenset union collapsed them); bincount keeps empty rows safe
        row_ids = np.repeat(np.arange(hi - lo, dtype=np.int64), seg_lengths)
        keep = flat != home[lo:hi][row_ids]
        kept_lengths[lo:hi] = seg_lengths - np.bincount(
            row_ids[~keep], minlength=hi - lo
        )
        replica_chunks.append(flat[keep])
    replica_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kept_lengths, out=replica_indptr[1:])
    replica_indices = (
        np.concatenate(replica_chunks)
        if replica_chunks
        else np.empty(0, dtype=np.int64)
    )
    return PlacementArrays(
        strategy="subscription-replication",
        toot_urls=urls,
        domains=domains,
        home=home,
        replica_indices=replica_indices,
        replica_indptr=replica_indptr,
        source_bounds=source_bounds,
    )


def _normalised_log_weights(
    candidates: Sequence[str], weights: Mapping[str, float], k: int
) -> np.ndarray:
    """Validate ``weights`` over ``candidates`` and return log-probabilities.

    Negative weights are clamped to zero (they mean "never place here",
    same as the legacy loop); zero-weight candidates get ``-inf`` so the
    Gumbel keys can never select them.  Raises :class:`AnalysisError`
    naming the domain when a weight is infinite or NaN, when the total
    mass is not finite or is zero, and when fewer than ``k`` candidates
    carry positive weight — the latter is the case where the legacy
    loop crashed with a raw ``ValueError`` from :meth:`rng.choice`.
    """
    given = [float(weights.get(domain, 0.0)) for domain in candidates]
    for domain, weight in zip(candidates, given):
        if not np.isfinite(weight):
            raise AnalysisError(
                f"the replication weight of {domain!r} is not finite ({weight!r})"
            )
    raw = np.asarray([max(0.0, weight) for weight in given], dtype=np.float64)
    with np.errstate(over="ignore"):
        total = raw.sum()
    if not np.isfinite(total):
        raise AnalysisError("replication weights overflow: their total is not finite")
    if total <= 0:
        raise AnalysisError("replication weights must contain positive mass")
    support = int(np.count_nonzero(raw))
    if support < k:
        raise AnalysisError(
            f"cannot place {k} replicas without replacement: only {support} of "
            f"{len(candidates)} candidate instances have positive weight"
        )
    with np.errstate(divide="ignore"):
        return np.log(raw / total)


def _dense_gumbel_top_k(
    rng: np.random.Generator,
    row_ids: np.ndarray,
    out: np.ndarray,
    m: int,
    k: int,
    log_weights: np.ndarray | None,
    partial_rows: np.ndarray | None = None,
    partial_picks: np.ndarray | None = None,
) -> None:
    """Exact Gumbel top-k for the given rows, written into ``out``.

    One dense key row per toot: i.i.d. uniform keys in the unweighted
    case, ``log w + Gumbel`` otherwise; the k largest keys are a sample
    without replacement proportional to the weights.  Chunked so the key
    matrix stays bounded.

    ``partial_rows``/``partial_picks`` (global row id repeated per pick,
    aligned pick codes) force already-found distinct picks of a
    truncated race into the top-k via ``+inf`` keys, so the remaining
    slots are filled by a fresh race over the other candidates — the
    exact conditional continuation.  ``row_ids`` must be sorted when
    they are given.
    """
    chunk_rows = max(1, _CHUNK_ELEMENTS // m)
    batch_rows = None
    if partial_rows is not None and partial_rows.size:
        # global row id -> position in this batch (row_ids is sorted)
        batch_rows = np.searchsorted(row_ids, partial_rows)
    for start in range(0, row_ids.size, chunk_rows):
        stop = min(start + chunk_rows, row_ids.size)
        rows = row_ids[start:stop]
        if log_weights is None:
            keys = rng.random((rows.size, m))
        else:
            keys = log_weights + rng.gumbel(size=(rows.size, m))
        if batch_rows is not None:
            in_chunk = (batch_rows >= start) & (batch_rows < stop)
            keys[batch_rows[in_chunk] - start, partial_picks[in_chunk]] = np.inf
        out[rows] = np.argpartition(keys, m - k, axis=1)[:, m - k :]


def _cumulative_weights(log_weights: np.ndarray) -> np.ndarray:
    """The weighted draw's cumulative distribution, ending at exactly 1.0."""
    cumulative = np.cumsum(np.exp(log_weights))
    # pin the tail to exactly 1.0 *from the last positive-weight
    # candidate on*, so cumsum float error can neither lose the final
    # mass nor hand it to a zero-weight candidate
    last_positive = int(np.nonzero(np.isfinite(log_weights))[0][-1])
    cumulative[last_positive:] = 1.0
    return cumulative


def _weighted_draws(cumulative: np.ndarray, variates: np.ndarray) -> np.ndarray:
    """``cumulative.searchsorted(variates, side="right")``, through a guide table.

    With ``B = _GUIDE_BUCKETS``, ``table[b]`` is the candidate that the
    variate ``b/B`` draws.  A variate ``u`` falls in bucket
    ``b = ⌊u·B⌋`` with ``b/B ≤ u`` (scaling by a power of two is
    exact), so its candidate — the first ``i`` with
    ``cumulative[i] > u`` — is ``table[b]`` or later.
    Stepping forward while ``cumulative[i] ≤ u`` reaches it, passing
    the ties of zero-weight candidates, and stops at the latest on the
    last entry, which is 1.0 and so above every ``u``.
    """
    edges = np.arange(_GUIDE_BUCKETS, dtype=np.float64) / _GUIDE_BUCKETS
    table = cumulative.searchsorted(edges, side="right")
    flat = variates.reshape(-1)
    index = table[(flat * _GUIDE_BUCKETS).astype(np.intp)]
    behind = np.flatnonzero(cumulative[index] <= flat)
    while behind.size:
        index[behind] += 1
        behind = behind[cumulative[index[behind]] <= flat[behind]]
    return index.reshape(variates.shape)


def _first_draws(draws: np.ndarray) -> np.ndarray:
    """``first[r, j]``: draw ``j`` of row ``r`` repeats no earlier draw of its row.

    One row-wise sort of ``draw * rounds + round`` keys brings each
    row's equal draws together in round order; the head of each run is
    a first occurrence.
    """
    n_rows, rounds = draws.shape
    keys = draws * rounds + np.arange(rounds)
    keys.sort(axis=1)
    values = keys // rounds
    head = np.ones(keys.shape, dtype=bool)
    np.not_equal(values[:, 1:], values[:, :-1], out=head[:, 1:])
    first = np.empty(keys.shape, dtype=bool)
    first[np.arange(n_rows)[:, None], keys % rounds] = head
    return first


def _batch_distinct_draws(
    rng: np.random.Generator,
    n: int,
    m: int,
    k: int,
    log_weights: np.ndarray | None,
) -> np.ndarray:
    """``(n, k)`` distinct candidate indices per row, one batched pass.

    The lazy Gumbel top-k race: draw ``k + 5`` i.i.d. categorical
    rounds per row and keep the first k distinct candidates — the
    arrival order of an i.i.d. race is exactly the descending order of
    Gumbel-perturbed keys, so resolved rows already hold the Gumbel
    top-k sample.  Rows that fail to resolve (likelier under heavy
    weight skew) are *continued*, not redrawn: their partial distinct
    picks are kept and forced into a dense Gumbel top-k over the
    remaining candidates.  By memorylessness of the race, the
    continuation conditioned on any prefix is a fresh race on the
    not-yet-drawn candidates, so the combined draw is exact for any
    skew.  (A fresh redraw of stragglers would *not* be: keeping only
    rows that resolved within the truncated race conditions them on
    fast resolution and under-represents collision-prone heavy
    candidates.)

    Most rows need no search for repeats: when a row's first k draws
    are pairwise distinct they *are* its first k distinct candidates,
    which ``k(k-1)/2`` compares over contiguous small-integer columns
    establish.  Only the other rows get first-occurrence flags
    (:func:`_first_draws`), and only they are ranked and, if short of
    k, continued.  Weighted variates map to candidates through a guide
    table (:func:`_weighted_draws`), exactly as ``searchsorted`` would.
    Every random call has the shape and order of the original O(k²)
    repeat scan, kept as the oracle in ``tests/reference/draws.py``,
    so the result is the same array.
    """
    out = np.empty((n, k), dtype=np.int64)
    rounds = k + 5
    if 2 * rounds >= m:
        # the race would cost as much as the dense keys — go dense directly
        _dense_gumbel_top_k(rng, np.arange(n), out, m, k, log_weights)
        return out
    if log_weights is not None:
        cumulative = _cumulative_weights(log_weights)
    code_type = np.min_scalar_type(m - 1)
    unresolved_rows: list[np.ndarray] = []
    partial_rows: list[np.ndarray] = []  # row id repeated per found pick
    partial_picks: list[np.ndarray] = []
    chunk_rows = max(1, _CHUNK_ELEMENTS // rounds)
    for start in range(0, n, chunk_rows):
        rows = min(chunk_rows, n - start)
        if log_weights is None:
            draws = rng.integers(0, m, size=(rows, rounds))
        else:
            draws = _weighted_draws(cumulative, rng.random((rows, rounds)))
        # a row keeps its first k draws unless two of them are equal
        out[start : start + rows] = draws[:, :k]
        leading = np.ascontiguousarray(draws[:, :k].T, dtype=code_type)
        clash = np.zeros(rows, dtype=bool)
        for later in range(1, k):
            for earlier in range(later):
                clash |= leading[later] == leading[earlier]
        clashing = np.flatnonzero(clash)
        if clashing.size == 0:
            continue
        draws = draws[clashing]
        first = _first_draws(draws)
        rank = np.cumsum(first, axis=1)
        resolved = rank[:, -1] >= k
        first_k = first & (rank <= k)
        out[clashing[resolved] + start] = draws[resolved][first_k[resolved]].reshape(-1, k)
        bad = ~resolved
        if bad.any():
            bad_ids = clashing[bad] + start
            unresolved_rows.append(bad_ids)
            found = first[bad]  # every first occurrence of an unresolved row
            partial_rows.append(np.repeat(bad_ids, found.sum(axis=1)))
            partial_picks.append(draws[bad][found])
    stragglers = (
        np.concatenate(unresolved_rows) if unresolved_rows else np.empty(0, np.int64)
    )
    if stragglers.size:
        _dense_gumbel_top_k(
            rng,
            stragglers,
            out,
            m,
            k,
            log_weights,
            partial_rows=np.concatenate(partial_rows),
            partial_picks=np.concatenate(partial_picks),
        )
    return out


def validated_candidates(
    candidate_domains: Sequence[str], n_replicas: int
) -> list[str]:
    """The sorted, de-duplicated candidate set behind every random draw."""
    if n_replicas < 0:
        raise AnalysisError("the number of replicas cannot be negative")
    candidates = sorted(set(candidate_domains))
    if not candidates:
        raise AnalysisError("no candidate instances to replicate onto")
    return candidates


def random_arrays_from_columns(
    urls: Sequence[str],
    home: np.ndarray,
    domains: tuple[str, ...],
    candidates: Sequence[str],
    n_replicas: int,
    seed: int = 0,
    weights: Mapping[str, float] | None = None,
    source_bounds: tuple[tuple[int, int], ...] | None = None,
) -> PlacementArrays:
    """The batched random draw over integer columns.

    ``home`` indexes ``domains`` (the sorted universe of homes plus
    ``candidates``); the draw depends only on ``(n, len(candidates),
    n_replicas, seed, weights)`` plus the home sequence, so the same
    columns always give bit-identical placements.
    """
    code = {domain: j for j, domain in enumerate(domains)}
    n, m = len(urls), len(candidates)
    k = min(n_replicas, m)

    log_weights: np.ndarray | None = None
    if weights is not None:
        log_weights = _normalised_log_weights(candidates, weights, k)

    label = f"random-replication-n{n_replicas}"
    if weights is not None:
        label += "-weighted"

    if k == 0:
        return PlacementArrays(
            strategy=label,
            toot_urls=urls,
            domains=domains,
            home=home,
            replica_indices=np.empty(0, dtype=np.int64),
            replica_indptr=np.zeros(n + 1, dtype=np.int64),
            source_bounds=source_bounds,
        )

    candidate_codes = _encode(candidates, code)
    if k == m:
        # every candidate is picked for every toot; no draw needed
        picks = np.broadcast_to(candidate_codes, (n, m))
    else:
        rng = np.random.default_rng(seed)
        picks = candidate_codes[_batch_distinct_draws(rng, n, m, k, log_weights)]

    # collapse draws that hit the home instance (frozenset-union semantics)
    keep = picks != home[:, None]
    dropped_rows = np.flatnonzero(~keep) // k
    replica_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(k - np.bincount(dropped_rows, minlength=n), out=replica_indptr[1:])
    return PlacementArrays(
        strategy=label,
        toot_urls=urls,
        domains=domains,
        home=home,
        replica_indices=picks[keep],
        replica_indptr=replica_indptr,
        source_bounds=source_bounds,
    )

"""Both merges against plain-Python references, on generated crawls.

Hypothesis draws whole crawls: instances ingested in shuffled order
(empty ones included) through every ingestion style, URLs shared across
instances and repeated within one, non-ASCII strings, 0–3 hashtags per
row, self-loop edges, any ``shard_size >= 1`` and merge chunks of a
few rows (so chunk boundaries fall inside instances).  The corpus store
must equal a reference that applies ``dict.setdefault`` first-seen in
sorted-domain order, counts remote observations, splits home from
remote and interns over new rows only; the graph store must hold the
reference edge stream and the node order of ``build_follower_graph``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusWriter, GraphWriter
from repro.crawler.toot_crawler import TootRecord
from repro.datasets.graphs import build_follower_graph
from repro.errors import DatasetError

DOMAINS = ("a.example", "b.example", "c.example", "dé.example", "e.example")

#: Any text a crawl may carry, except the spool's row separator and NUL:
#: shard and table strings are numpy fixed-width unicode, which drops
#: trailing NULs (``"a\x00"`` reads back as ``"a"``), so the spool seal
#: rejects both (see the test at the end of this module).
ALPHABET = st.characters(codec="utf-8", blacklist_characters="\n\x00")
texts = st.text(ALPHABET, max_size=12)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def crawls(draw):
    """``(ingestion order, {domain: (style, rows)}, shard_size, chunk_rows)``."""
    urls = draw(st.lists(texts, min_size=1, max_size=10, unique=True))
    accounts = draw(st.lists(texts, min_size=1, max_size=5, unique=True))
    tags = draw(st.lists(texts, min_size=1, max_size=5, unique=True))
    row = st.builds(
        TootRecord,
        toot_id=st.integers(-(2**40), 2**40),
        url=st.sampled_from(urls),
        account=st.sampled_from(accounts),
        author_domain=st.sampled_from(DOMAINS),
        collected_from=st.just(""),
        created_at=st.integers(0, 2**40),
        hashtags=st.lists(st.sampled_from(tags), max_size=3).map(tuple),
        media_attachments=st.integers(0, 9),
        favourites=st.integers(0, 2**20),
        is_boost=st.booleans(),
        sensitive=st.booleans(),
    )
    instances = {
        domain: (
            draw(st.sampled_from(["page", "records", "columns"])),
            draw(st.lists(row, max_size=12)),
        )
        for domain in draw(st.lists(st.sampled_from(DOMAINS), unique=True, max_size=5))
    }
    order = draw(st.permutations(sorted(instances)))
    return order, instances, draw(st.integers(1, 20)), draw(st.integers(1, 8))


def ingest(writer: CorpusWriter, domain: str, style: str, rows: list[TootRecord]) -> None:
    """Feed ``rows`` in two calls of one ingestion style, then seal."""
    half = len(rows) // 2
    for part in (rows[:half], rows[half:]):
        if not part:
            continue
        if style == "records":
            writer.add_records(domain, part)
        elif style == "page":
            writer.add_page(domain, [
                {
                    "id": r.toot_id, "url": r.url, "account": r.account,
                    "account_domain": r.author_domain, "created_at": r.created_at,
                    "reblog_of_id": 1 if r.is_boost else None, "sensitive": r.sensitive,
                    "media_attachments": r.media_attachments,
                    "favourites_count": r.favourites, "tags": list(r.hashtags),
                }
                for r in part
            ])
        else:
            writer.add_columns(
                domain,
                urls=[r.url for r in part],
                accounts=[r.account for r in part],
                author_domains=[r.author_domain for r in part],
                toot_id=np.array([r.toot_id for r in part]),
                created_minute=np.array([r.created_at for r in part]),
                is_boost=np.array([r.is_boost for r in part]),
                sensitive=np.array([r.sensitive for r in part]),
                media_attachments=np.array([r.media_attachments for r in part]),
                favourites=np.array([r.favourites for r in part]),
                hashtag_flat=[tag for r in part for tag in r.hashtags],
                hashtag_lengths=np.array([len(r.hashtags) for r in part], dtype=np.int64),
            )
    writer.end_instance(domain)


def reference_corpus(instances: dict[str, list[TootRecord]]) -> dict:
    """The merge, one row at a time with plain dicts."""
    seen: dict[str, int] = {}
    domains: dict[str, int] = {}
    authors: dict[str, int] = {}
    hashtags: dict[str, int] = {}
    toots: list[dict] = []
    replication: list[int] = []
    observations: dict[str, list[int]] = {}
    for domain in sorted(instances):
        rows = instances[domain]
        home = sum(r.author_domain == domain for r in rows)
        observations[domain] = [home, len(rows) - home]
        if not rows:
            continue
        collected = domains.setdefault(domain, len(domains))
        for r in rows:
            code = seen.setdefault(r.url, len(seen))
            if code == len(toots):
                replication.append(0)
                toots.append({
                    "url": r.url,
                    "toot_id": r.toot_id,
                    "home_code": domains.setdefault(r.author_domain, len(domains)),
                    "author_code": authors.setdefault(r.account, len(authors)),
                    "collected_code": collected,
                    "created_minute": r.created_at,
                    "is_boost": r.is_boost,
                    "sensitive": r.sensitive,
                    "media_attachments": r.media_attachments,
                    "favourites": r.favourites,
                    "hashtags": [hashtags.setdefault(t, len(hashtags)) for t in r.hashtags],
                })
            if r.author_domain != domain:
                replication[code] += 1
    home_counts: dict[str, int] = {}
    names = list(domains)
    for toot in toots:
        home_domain = names[toot["home_code"]]
        home_counts[home_domain] = home_counts.get(home_domain, 0) + 1
    return {
        "toots": toots,
        "domains": names,
        "authors": list(authors),
        "hashtags": list(hashtags),
        "replication": replication,
        "observations": observations,
        "home_toot_counts": home_counts,
        "n_observations": sum(len(rows) for rows in instances.values()),
        "n_boosts": sum(toot["is_boost"] for toot in toots),
    }


@SETTINGS
@given(crawl=crawls())
def test_corpus_merge_matches_the_reference(tmp_path_factory, crawl):
    order, instances, shard_size, chunk_rows = crawl
    writer = CorpusWriter(tmp_path_factory.mktemp("corpus"), shard_size=shard_size)
    for domain in order:
        ingest(writer, domain, *instances[domain])
    with mock.patch("repro.corpus.writer.MERGE_CHUNK_ROWS", chunk_rows):
        store = writer.finalise(crawl_minute=3)
    expected = reference_corpus({d: rows for d, (_, rows) in instances.items()})
    toots = expected["toots"]

    assert store.n_toots == len(toots)
    assert store.n_observations == expected["n_observations"]
    assert store.n_boosts == expected["n_boosts"]
    assert store.observations == {d: tuple(c) for d, c in expected["observations"].items()}
    assert store.home_toot_counts == expected["home_toot_counts"]
    assert store.domains.tolist() == expected["domains"]
    assert store.authors.tolist() == expected["authors"]
    assert store.hashtags.tolist() == expected["hashtags"]
    assert store.replication_counts().tolist() == expected["replication"]

    bounds = [(lo, min(lo + shard_size, len(toots))) for lo in range(0, len(toots), shard_size)]
    assert store.shard_bounds() == bounds
    for index, (lo, hi) in enumerate(bounds):
        columns = store.shard_columns(index)
        for name in ("url", "toot_id", "home_code", "author_code", "collected_code",
                     "created_minute", "is_boost", "sensitive", "media_attachments",
                     "favourites"):
            assert getattr(columns, name).tolist() == [t[name] for t in toots[lo:hi]], name
        lengths = [len(t["hashtags"]) for t in toots[lo:hi]]
        assert columns.hashtag_indptr.tolist() == np.concatenate([[0], np.cumsum(lengths)]).tolist()
        assert columns.hashtag_codes.tolist() == [c for t in toots[lo:hi] for c in t["hashtags"]]


handles = st.builds(
    "{}@{}".format,
    st.text(ALPHABET, min_size=1, max_size=6),
    st.text(ALPHABET.filter(lambda c: c != "@"), min_size=1, max_size=6),
)


@st.composite
def edge_crawls(draw):
    """``(ingestion order, {domain: edges}, shard_size, chunk_rows)``."""
    pool = draw(st.lists(handles, min_size=1, max_size=8, unique=True))
    edge = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    loop = st.sampled_from(pool).map(lambda handle: (handle, handle))
    instances = {
        domain: draw(st.lists(st.one_of(edge, loop), max_size=12))
        for domain in draw(st.lists(st.sampled_from(DOMAINS), unique=True, max_size=5))
    }
    order = draw(st.permutations(sorted(instances)))
    return order, instances, draw(st.integers(1, 20)), draw(st.integers(1, 8))


@SETTINGS
@given(crawl=edge_crawls())
def test_graph_merge_matches_build_follower_graph(tmp_path_factory, crawl):
    order, instances, shard_size, chunk_rows = crawl
    writer = GraphWriter(tmp_path_factory.mktemp("graph"), shard_size=shard_size)
    for domain in order:
        edges = instances[domain]
        if edges:
            writer.add_edges(domain, edges[: len(edges) // 2])
            writer.add_edges(domain, iter(edges[len(edges) // 2 :]))
        writer.end_instance(domain)
    with mock.patch("repro.corpus.graph.MERGE_CHUNK_ROWS", chunk_rows):
        store = writer.finalise(crawl_minute=3)

    stream = [edge for domain in sorted(instances) for edge in instances[domain]]
    kept = [(src, dst) for src, dst in stream if src != dst]
    graph = build_follower_graph(stream)
    handles_table = store.handles.tolist()
    assert handles_table == list(graph.nodes)
    assert list(store.iter_edge_handles()) == kept
    assert set(store.iter_edge_handles()) == set(graph.edges)
    assert store.n_self_loops == len(stream) - len(kept)
    assert store.edges_collected == {d: len(e) for d, e in instances.items()}
    node_domains = [handle.rpartition("@")[2] for handle in handles_table]
    assert store.domains.tolist() == list(dict.fromkeys(node_domains))
    assert [store.domains[c] for c in store.node_domain_codes] == node_domains


@pytest.mark.parametrize(
    "bad", ["https://a.example/1\nhttps://a.example/2", "\ud800", "https://a.example/1\x00"]
)
def test_a_string_the_spool_cannot_hold_is_a_dataset_error(tmp_path, bad):
    """A newline, a lone surrogate or a NUL fails the seal by name, and nothing is sealed.

    A NUL would not survive the store: ``https://a.example/1\x00`` would
    read back as ``https://a.example/1``, a second toot with the URL of
    the first.
    """
    corpus = CorpusWriter(tmp_path / "corpus")
    corpus.add_columns(
        "a.example", urls=[bad],
        accounts=["u@a.example"], author_domains=["a.example"],
        toot_id=np.array([1]), created_minute=np.array([0]), is_boost=np.array([False]),
        sensitive=np.array([False]), media_attachments=np.array([0]),
        favourites=np.array([0]), hashtag_flat=[], hashtag_lengths=np.array([0]),
    )
    with pytest.raises(DatasetError, match="corpus url values"):
        corpus.end_instance("a.example")
    assert corpus.sealed_domains() == set()
    assert corpus.finalise().n_observations == 0
    graph = GraphWriter(tmp_path / "graph")
    graph.add_edges("a.example", [("u@a.example", f"v@{bad}")])
    with pytest.raises(DatasetError, match="corpus followed values"):
        graph.end_instance("a.example")
    assert graph.finalise().n_edges == 0

"""Untrusted shards: an integer code outside its intern table is a named error.

Every code column a store reads from a shard indexes one of its intern
tables: ``home_code``/``collected_code`` the corpus domains,
``author_code`` the authors, ``hashtag_codes`` the hashtags, and the
graph's ``follower_code``/``followed_code`` its handles.  A code of
``-1`` would silently wrap to the last entry (a toot moved to another
instance) and a code of ``len(table)`` would raise a raw ``IndexError``.
Both stores must refuse either with a :class:`DatasetError` naming the
shard file and the column, and serve must answer such a store with a
400.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.corpus import CorpusStore, CorpusWriter, GraphStore, GraphWriter
from repro.crawler.toot_crawler import TootRecord
from repro.engine import StrategySpec
from repro.errors import DatasetError
from repro.serve import AvailabilityService, build_http_server

from tests.serve.test_transports import http_get


def write_corpus(path) -> CorpusStore:
    writer = CorpusWriter(path, shard_size=2)
    for domain in ("a.example", "b.example"):
        writer.add_records(
            domain,
            [
                TootRecord(
                    toot_id=i,
                    url=f"https://{domain}/@u{i}/{i}",
                    account=f"u{i}@{domain}",
                    author_domain=domain,
                    collected_from=domain,
                    created_at=i,
                    hashtags=(f"tag{i}",),
                )
                for i in range(1, 4)
            ],
        )
        writer.end_instance(domain)
    return writer.finalise(crawl_minute=7)


def write_graph(path) -> GraphStore:
    writer = GraphWriter(path, shard_size=2)
    writer.add_edges(
        "a.example",
        [("u1@b.example", "u1@a.example"), ("u2@b.example", "u1@a.example"),
         ("u1@a.example", "u2@b.example")],
    )
    writer.end_instance("a.example")
    return writer.finalise(crawl_minute=7)


#: Per store: its writer, its code columns with their intern table, and
#: a read that goes through every code column of shard 0.
STORES = {
    "corpus": (
        write_corpus,
        {
            "home_code": "domains",
            "collected_code": "domains",
            "author_code": "authors",
            "hashtag_codes": "hashtags",
        },
        lambda store: store.shard_columns(0),
    ),
    "graph": (
        write_graph,
        {"follower_code": "handles", "followed_code": "handles"},
        lambda store: store.shard_edges(0),
    ),
}

CASES = [
    (kind, column, bad)
    for kind, (_, columns, _) in STORES.items()
    for column in columns
    for bad in ("negative", "table size")
]


def rewrite_code(store, column: str, bad: str) -> tuple[str, int]:
    """Set one code of shard 0's ``column`` to ``-1`` or ``len(table)``."""
    table = STORES[store.kind][1][column]
    value = -1 if bad == "negative" else len(store._table(table))
    name = store.manifest["shards"][0]["file"]
    path = store.path / name
    with np.load(path) as archive:
        members = {member: archive[member] for member in archive.files}
    codes = members[column].copy()
    codes[0] = value
    members[column] = codes
    with open(path, "wb") as handle:
        np.savez(handle, **members)
    return name, value


@pytest.mark.parametrize(("kind", "column", "bad"), CASES)
def test_out_of_table_code_is_a_named_error(tmp_path, kind, column, bad):
    write, _, read = STORES[kind]
    written = write(tmp_path / "store")
    name, value = rewrite_code(written, column, bad)
    for mmap in (False, True):
        store = type(written)(written.path, mmap=mmap)
        with pytest.raises(DatasetError) as excinfo:
            read(store)
        message = str(excinfo.value)
        assert str(store.path) in message
        assert repr(name) in message and repr(column) in message
        assert f"code {value}" in message


@pytest.mark.parametrize("bad", ["negative", "table size"])
def test_single_column_reads_are_checked(tmp_path, bad):
    store = write_corpus(tmp_path / "corpus")
    rewrite_code(store, "home_code", bad)
    store = CorpusStore(store.path)
    with pytest.raises(DatasetError, match="'home_code'"):
        store.shard_column(0, "home_code")
    with pytest.raises(DatasetError, match="'home_code'"):
        store.column("home_code")
    # a wrapped -1 used to move a toot to another instance silently
    with pytest.raises(DatasetError, match="'home_code'"):
        StrategySpec.none().build_from_corpus(store)
    assert store.shard_column(0, "created_minute").size == 2  # other columns still read


@pytest.mark.parametrize(("kind", "column", "strategy"), [
    ("corpus", "home_code", "no-rep"),
    ("graph", "followed_code", "s-rep"),
])
def test_serve_answers_a_bad_code_with_400(tmp_path, kind, column, strategy):
    corpus = write_corpus(tmp_path / "corpus")
    graph = write_graph(tmp_path / "graph")
    rewrite_code(corpus if kind == "corpus" else graph, column, "negative")
    service = AvailabilityService(corpus.path, graph.path, mmap=True)
    server = build_http_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        status, payload = http_get(
            f"http://{host}:{port}", "/availability", k=1, strategy=strategy
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert status == 400
    assert repr(column) in payload["error"]


"""Untrusted manifests: both stores reject malformed values by name.

A manifest is read from disk, so every value in it is untrusted input.
The one shared validator (:class:`repro.corpus.sharded.ShardedStore`)
must turn each malformed value into a :class:`DatasetError` that names
the store directory and the offending manifest key — never a raw
``TypeError``, and never a file opened from outside the store.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.corpus import CorpusStore, CorpusWriter, GraphStore, GraphWriter
from repro.crawler.toot_crawler import TootRecord
from repro.errors import DatasetError


def write_corpus(path) -> CorpusStore:
    writer = CorpusWriter(path, shard_size=2)
    for domain in ("a.example", "b.example"):
        writer.add_records(
            domain,
            [
                TootRecord(
                    toot_id=i,
                    url=f"https://{domain}/@u/{i}",
                    account=f"u@{domain}",
                    author_domain=domain,
                    collected_from=domain,
                    created_at=i,
                )
                for i in range(1, 4)
            ],
        )
        writer.end_instance(domain)
    return writer.finalise(crawl_minute=7)


def write_graph(path) -> GraphStore:
    writer = GraphWriter(path, shard_size=2)
    writer.add_edges(
        "x.example",
        [("a@y.example", "b@x.example"), ("c@y.example", "b@x.example"),
         ("b@x.example", "a@y.example")],
    )
    writer.end_instance("x.example")
    return writer.finalise(crawl_minute=7)


STORES = {"corpus": write_corpus, "graph": write_graph}

#: A dataset-specific count no other manifest value is checked against.
DATASET_COUNT = {"corpus": "n_observations", "graph": "n_nodes"}


@pytest.fixture(params=sorted(STORES))
def store(request, tmp_path):
    return STORES[request.param](tmp_path / "store")


def mutate(store, change) -> None:
    path = store.path / "manifest.json"
    manifest = json.loads(path.read_text())
    change(manifest)
    path.write_text(json.dumps(manifest))


def assert_named_error(store, key: str) -> str:
    with pytest.raises(DatasetError) as excinfo:
        type(store)(store.path)
    message = str(excinfo.value)
    assert str(store.path) in message
    assert f"key {key!r}" in message
    return message


def outside_copy(store, member: str) -> str:
    """Copy a store file next to (outside) the store; return its name."""
    target = store.path.parent / "outside.npz"
    shutil.copy(store.path / member, target)
    return str(target)


def test_string_shard_bound(store):
    def change(manifest):
        manifest["shards"][-1]["stop"] = str(manifest["shards"][-1]["stop"])

    mutate(store, change)
    assert_named_error(store, "shards")


def test_bool_shard_bound(store):
    # JSON false == 0 in Python, so only the type check can catch it
    mutate(store, lambda manifest: manifest["shards"][0].update(start=False))
    assert_named_error(store, "shards")


@pytest.mark.parametrize("key", ["crawl_minute", "dataset_count"])
def test_bool_count(store, key):
    key = DATASET_COUNT[store.kind] if key == "dataset_count" else key
    mutate(store, lambda manifest: manifest.update({key: True}))
    assert_named_error(store, key)


@pytest.mark.parametrize("shard_size", [0, -3])
def test_shard_size_below_one(store, shard_size):
    mutate(store, lambda manifest: manifest.update(shard_size=shard_size))
    assert_named_error(store, "shard_size")


def test_non_string_file(store):
    mutate(store, lambda manifest: manifest["shards"][0].update(file=7))
    assert_named_error(store, "shards")


@pytest.mark.parametrize("name", ["", ".", ".."])
def test_file_not_a_plain_name(store, name):
    mutate(store, lambda manifest: manifest["shards"][0].update(file=name))
    assert_named_error(store, "shards")


def test_file_in_a_subdirectory(store):
    first = store.manifest["shards"][0]["file"]
    (store.path / "sub").mkdir()
    shutil.copy(store.path / first, store.path / "sub" / first)
    mutate(store, lambda manifest: manifest["shards"][0].update(file=f"sub/{first}"))
    assert_named_error(store, "shards")


def test_relative_file_outside_the_store(store):
    first = store.manifest["shards"][0]["file"]
    outside_copy(store, first)
    mutate(store, lambda manifest: manifest["shards"][0].update(file="../outside.npz"))
    assert_named_error(store, "shards")


def test_absolute_file_outside_the_store(store):
    absolute = outside_copy(store, store.manifest["shards"][0]["file"])
    mutate(store, lambda manifest: manifest["shards"][0].update(file=absolute))
    assert_named_error(store, "shards")


def test_tables_outside_the_store(store):
    outside_copy(store, "tables.npz")
    mutate(store, lambda manifest: manifest.update(tables="../outside.npz"))
    assert_named_error(store, "tables")


def test_valid_manifest_still_opens(store):
    reopened = type(store)(store.path)
    assert reopened.n_shards > 1
    assert reopened.shard_bounds() == store.shard_bounds()
    assert reopened.content_digest() == store.content_digest()

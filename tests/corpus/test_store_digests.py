"""Pinned store contents: both writers' output, digest for digest.

The spool format between crawl and merge is private, so any change to
it (or to a merge) must leave every finished store exactly as it was.
These pins hold the full :meth:`content_digest` of the corpus and the
graph store, plus a SHA-256 of each manifest without its ``created_at``
timestamp (coverage included), for two fixed collects:

* the crawl path, ``collect --preset tiny --seed 11`` at default shard
  sizes;
* the columnar path, ``collect --columnar --preset small --seed 42`` at
  default shard sizes.

A pin that moves means the stores changed, not that the pin is stale:
re-derive one only for a deliberate change to the generator or the
store format, and say so.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.corpus import CorpusStore, GraphStore
from repro.crawler import FollowerGraphCrawler

#: case -> store -> (content digest, manifest-without-created_at SHA-256)
PINS = {
    "tiny-11-crawl": {
        "corpus": (
            "0dbf55dbea650e1f7cf900f97b20a594e05eae19365076d89c8d309e8df2a782",
            "761176852762693cb330a032f375951241471541ce66a6cca33d0cab6e27e436",
        ),
        "graph": (
            "ca089bce3e4824eb757079f078385f6f30796687cc4c17c32af77c03e40ae571",
            "fe31d8db67bb242b094f30e4943dfac99ae02d5553ebab3272cbf453b2d0369b",
        ),
    },
    "small-42-columnar": {
        "corpus": (
            "606f55386aea1e9a962effc1cf73d3379518081c397c6c36a265eeb452d28c04",
            "47b8dc73f97f4b5592b646df8b9f5e5d1b62d00d781a377fb12f12fefe96ff57",
        ),
        "graph": (
            "c901b976412a7eb8bb362c7f75c9bce7cbd1abedc5388459283b2f5fbe8c69ff",
            "61623bda7ee338f5f0aa94e0e7ae2d357e1968dddcacee155376a977b8686492",
        ),
    },
}

ARGV = {
    "tiny-11-crawl": ["--preset", "tiny", "--seed", "11"],
    "small-42-columnar": ["--columnar", "--preset", "small", "--seed", "42"],
}


def manifest_hash(store) -> str:
    manifest = {k: v for k, v in store.manifest.items() if k != "created_at"}
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module", params=sorted(PINS))
def collected(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    argv = ["collect", "--corpus", str(root / "corpus"), "--graph", str(root / "graph")]
    assert main(argv + ARGV[request.param]) == 0
    stores = {"corpus": CorpusStore(root / "corpus"), "graph": GraphStore(root / "graph")}
    return request.param, stores


@pytest.mark.parametrize("kind", ["corpus", "graph"])
def test_content_digest_is_pinned(collected, kind):
    case, stores = collected
    assert stores[kind].content_digest() == PINS[case][kind][0]


@pytest.mark.parametrize("kind", ["corpus", "graph"])
def test_manifest_is_pinned(collected, kind):
    case, stores = collected
    assert manifest_hash(stores[kind]) == PINS[case][kind][1]


@pytest.mark.parametrize("kind", ["corpus", "graph"])
def test_mmap_open_reads_the_same_content(collected, kind):
    case, stores = collected
    mapped = type(stores[kind])(stores[kind].path, mmap=True)
    assert mapped.content_digest() == PINS[case][kind][0]


def test_collect_without_graph_runs_no_follower_crawl(tmp_path, monkeypatch):
    """Without ``--graph`` the follower lists are never crawled, and the
    corpus is the pinned one: the monitor and the toot crawl still run."""

    def no_follower_crawl(self, *args, **kwargs):
        raise AssertionError("collect without --graph crawled the follower lists")

    monkeypatch.setattr(FollowerGraphCrawler, "crawl", no_follower_crawl)
    corpus_dir = tmp_path / "corpus"
    assert main(["collect", "--corpus", str(corpus_dir)] + ARGV["tiny-11-crawl"]) == 0
    store = CorpusStore(corpus_dir)
    assert store.content_digest() == PINS["tiny-11-crawl"]["corpus"][0]
    assert manifest_hash(store) == PINS["tiny-11-crawl"]["corpus"][1]

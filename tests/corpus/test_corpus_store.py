"""Corpus round-trips: write→read bit-identity, shard geometry, manifests.

The write path must reproduce the legacy ``unique_toots()`` catalogue
exactly — same ordering, same values, every column — for any shard
size, ragged tails included; the manifest must reject structurally
broken corpora with :class:`DatasetError` instead of surfacing numpy
``KeyError`` noise.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.corpus import COLUMN_NAMES, CorpusStore, CorpusWriter, TootColumns
from repro.crawler.toot_crawler import TootRecord
from repro.datasets import TootsDataset
from repro.datasets.toots import TimelineComposition
from repro.errors import DatasetError

N_SYNTH = 97
SHARD_SIZES = (1, 13, N_SYNTH, N_SYNTH + 7)  # {1, prime, n, n + 7}


def synthetic_observations(
    n: int = N_SYNTH, n_domains: int = 5, seed: int = 3
) -> dict[str, list[TootRecord]]:
    """Records-by-instance with cross-instance duplicates and ragged tags."""
    rng = np.random.default_rng(seed)
    domains = [f"d{i}.example" for i in range(n_domains)]
    observations: dict[str, list[TootRecord]] = {domain: [] for domain in domains}
    for t in range(n):
        home = domains[int(rng.integers(n_domains))]
        record = TootRecord(
            toot_id=t + 1,
            url=f"https://{home}/@u/{t + 1}",
            account=f"u{int(rng.integers(20))}@{home}",
            author_domain=home,
            collected_from=home,
            created_at=int(rng.integers(10_000)),
            hashtags=tuple(f"tag{j}" for j in rng.integers(0, 9, rng.integers(0, 4))),
            media_attachments=int(rng.integers(0, 3)),
            favourites=int(rng.integers(0, 50)),
            is_boost=bool(rng.random() < 0.2),
            sensitive=bool(rng.random() < 0.1),
        )
        observations[home].append(record)
        # replicate onto a few other federated timelines (duplicates)
        for other in rng.permutation(n_domains)[: int(rng.integers(0, 3))]:
            domain = domains[int(other)]
            if domain != home:
                observations[domain].append(replace(record, collected_from=domain))
    return observations


def write_corpus(tmp_path, observations, shard_size) -> CorpusStore:
    writer = CorpusWriter(tmp_path, shard_size=shard_size)
    for domain, records in observations.items():
        writer.add_records(domain, records)
        writer.end_instance(domain)
    return writer.finalise(crawl_minute=123)


def expected_unique(observations) -> list[TootRecord]:
    """First-seen dedup over sorted-domain iteration (the legacy order)."""
    unique: dict[str, TootRecord] = {}
    for domain in sorted(observations):
        for record in observations[domain]:
            unique.setdefault(record.url, record)
    return list(unique.values())


@pytest.fixture(scope="module")
def observations():
    return synthetic_observations()


# -- write→read bit identity -------------------------------------------------------


class TestCrawlRoundTrip:
    """The sink-crawled corpus vs the legacy record crawl, field by field."""

    def test_unique_count_and_ordering(self, tiny_crawl, tiny_store):
        unique = tiny_crawl.unique_toots()
        assert tiny_store.n_toots == len(unique)
        assert list(tiny_store.urls()) == list(unique)

    def test_records_materialise_identically(self, tiny_crawl, tiny_store):
        assert list(tiny_store.iter_records()) == list(tiny_crawl.unique_toots().values())

    def test_every_column_matches_the_records(self, tiny_crawl, tiny_store):
        records = list(tiny_crawl.unique_toots().values())
        domains = tiny_store.domains.tolist()
        authors = tiny_store.authors.tolist()
        hashtags = tiny_store.hashtags.tolist()
        row = 0
        for _, columns in tiny_store.iter_columns():
            for local in range(columns.n_toots):
                record = records[row]
                assert str(columns.url[local]) == record.url
                assert int(columns.toot_id[local]) == record.toot_id
                assert domains[columns.home_code[local]] == record.author_domain
                assert domains[columns.collected_code[local]] == record.collected_from
                assert authors[columns.author_code[local]] == record.account
                assert int(columns.created_minute[local]) == record.created_at
                assert bool(columns.is_boost[local]) == record.is_boost
                assert bool(columns.sensitive[local]) == record.sensitive
                assert int(columns.media_attachments[local]) == record.media_attachments
                assert int(columns.favourites[local]) == record.favourites
                assert columns.hashtags_of(local, hashtags) == record.hashtags
                row += 1
        assert row == tiny_store.n_toots

    def test_observation_counts_match_the_crawl(self, tiny_crawl, tiny_store):
        assert tiny_store.n_observations == len(tiny_crawl.all_records())
        for domain, records in tiny_crawl.records_by_instance.items():
            home = sum(1 for r in records if r.author_domain == domain)
            assert tiny_store.observations[domain] == (home, len(records) - home)


class TestDatasetEquivalence:
    """`TootsDataset.from_corpus` answers like plain loops over the crawl's records."""

    @pytest.fixture(scope="class")
    def unique(self, tiny_crawl):
        return list(tiny_crawl.unique_toots().values())

    @pytest.fixture(scope="class")
    def corpus_toots(self, tiny_store):
        return TootsDataset.from_corpus(tiny_store)

    def test_aggregates_without_materialising(self, unique, corpus_toots):
        assert len(corpus_toots) == len(unique)
        assert corpus_toots.boost_count() == sum(r.is_boost for r in unique)
        authors = Counter(r.account for r in unique)
        assert corpus_toots.author_count() == len(authors)
        assert corpus_toots.authors() == sorted(authors)
        homes = Counter(r.author_domain for r in unique)
        assert corpus_toots.home_instances() == sorted(homes)
        assert corpus_toots.toots_per_instance() == dict(homes)
        assert corpus_toots.toots_per_author() == dict(authors)
        assert corpus_toots.coverage(10**6) == len(unique) / 10**6
        # none of the above touched a record
        assert corpus_toots._records is None

    def test_compositions_and_replication(self, tiny_crawl, unique, corpus_toots):
        observed = tiny_crawl.records_by_instance
        assert corpus_toots.observed_instances() == sorted(observed)
        compositions = []
        for domain in sorted(observed):
            home = sum(1 for r in observed[domain] if r.author_domain == domain)
            compositions.append(
                TimelineComposition(domain, home, len(observed[domain]) - home)
            )
        assert corpus_toots.timeline_compositions() == compositions
        replication = {r.url: 0 for r in unique}
        for domain, records in observed.items():
            for record in records:
                if record.author_domain != domain:
                    replication[record.url] += 1
        assert corpus_toots.replication_counts() == replication
        per_instance = Counter()
        for record in unique:
            per_instance[record.author_domain] += replication[record.url]
        assert corpus_toots.replication_per_instance() == dict(per_instance)
        with pytest.raises(DatasetError):
            corpus_toots.timeline_composition("nowhere.example")

    def test_record_api_materialises_lazily_and_identically(self, unique, corpus_toots):
        assert corpus_toots.records() == unique
        assert corpus_toots._records is not None
        some_author = unique[0].account
        assert corpus_toots.toots_by_author(some_author) == [
            r for r in unique if r.account == some_author
        ]


# -- shard geometry ----------------------------------------------------------------


class TestShardGeometry:
    @pytest.mark.parametrize("shard_size", SHARD_SIZES)
    def test_bounds_partition_and_columns_reassemble(
        self, tmp_path, observations, shard_size
    ):
        reference = write_corpus(tmp_path / "ref", observations, N_SYNTH)
        store = write_corpus(tmp_path / f"s{shard_size}", observations, shard_size)
        assert store.n_toots == reference.n_toots == len(expected_unique(observations))
        bounds = store.shard_bounds()
        assert bounds[0][0] == 0 and bounds[-1][1] == store.n_toots
        assert all(prev[1] == cur[0] for prev, cur in zip(bounds, bounds[1:]))
        assert store.n_shards == -(-store.n_toots // min(shard_size, store.n_toots))
        for name in COLUMN_NAMES:
            if name == "hashtag_indptr":
                continue
            left = store.column(name)
            right = reference.column(name)
            assert np.array_equal(left, right), f"column {name!r} diverged"

    def test_prime_shard_size_leaves_ragged_tail(self, tmp_path, observations):
        store = write_corpus(tmp_path, observations, 13)
        *full, tail = [stop - start for start, stop in store.shard_bounds()]
        assert set(full) == {13}
        assert tail == store.n_toots % 13

    def test_shard_indptr_is_local(self, tmp_path, observations):
        store = write_corpus(tmp_path, observations, 13)
        for index in range(store.n_shards):
            columns = store.shard_columns(index)
            assert columns.hashtag_indptr[0] == 0
            assert columns.hashtag_indptr[-1] == columns.hashtag_codes.shape[0]

    def test_records_identical_across_shard_sizes(self, tmp_path, observations):
        expected = expected_unique(observations)
        for shard_size in SHARD_SIZES:
            store = write_corpus(tmp_path / f"r{shard_size}", observations, shard_size)
            assert list(store.iter_records()) == expected


# -- manifest validation -----------------------------------------------------------


class TestManifestValidation:
    @pytest.fixture()
    def corpus_path(self, tmp_path, observations):
        write_corpus(tmp_path, observations, 13)
        return tmp_path

    def _mutate(self, path, **changes):
        manifest = json.loads((path / "manifest.json").read_text())
        manifest.update(changes)
        (path / "manifest.json").write_text(json.dumps(manifest))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="manifest"):
            CorpusStore(tmp_path / "nowhere")

    def test_invalid_json(self, corpus_path):
        (corpus_path / "manifest.json").write_text("{not json")
        with pytest.raises(DatasetError, match="invalid JSON"):
            CorpusStore(corpus_path)

    def test_unsupported_schema(self, corpus_path):
        self._mutate(corpus_path, schema="repro.corpus/v999")
        with pytest.raises(DatasetError, match="schema"):
            CorpusStore(corpus_path)

    def test_missing_required_key(self, corpus_path):
        manifest = json.loads((corpus_path / "manifest.json").read_text())
        del manifest["shards"]
        (corpus_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="missing 'shards'"):
            CorpusStore(corpus_path)

    def test_unexpected_column_set(self, corpus_path):
        self._mutate(corpus_path, columns=["url", "home_code"])
        with pytest.raises(DatasetError, match="column set"):
            CorpusStore(corpus_path)

    def test_missing_shard_file(self, corpus_path):
        (corpus_path / "shard-00001.npz").unlink()
        with pytest.raises(DatasetError, match="shard-00001.npz"):
            CorpusStore(corpus_path)

    def test_missing_tables_file(self, corpus_path):
        (corpus_path / "tables.npz").unlink()
        with pytest.raises(DatasetError, match="tables"):
            CorpusStore(corpus_path)

    def test_non_contiguous_shards(self, corpus_path):
        manifest = json.loads((corpus_path / "manifest.json").read_text())
        manifest["shards"][1]["start"] += 1
        (corpus_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="contiguous"):
            CorpusStore(corpus_path)

    def test_total_mismatch(self, corpus_path):
        self._mutate(corpus_path, n_toots=1)
        with pytest.raises(DatasetError, match="declares"):
            CorpusStore(corpus_path)

    def test_shard_missing_column_member(self, corpus_path, observations):
        # drop a member from one shard file: loading that shard must fail loudly
        store = CorpusStore(corpus_path)
        handle = np.load(corpus_path / "shard-00000.npz")
        arrays = {name: handle[name] for name in handle.files if name != "sensitive"}
        np.savez(corpus_path / "shard-00000.npz", **arrays)
        store = CorpusStore(corpus_path)
        with pytest.raises(DatasetError, match="missing columns"):
            store.shard_columns(0)


# -- writer lifecycle --------------------------------------------------------------


class TestWriterLifecycle:
    def test_finalise_with_open_spool_fails(self, tmp_path):
        writer = CorpusWriter(tmp_path)
        writer.add_records(
            "a.example",
            [
                TootRecord(
                    toot_id=1,
                    url="https://a.example/@u/1",
                    account="u@a.example",
                    author_domain="a.example",
                    collected_from="a.example",
                    created_at=1,
                )
            ],
        )
        with pytest.raises(DatasetError, match="open instance spools"):
            writer.finalise()

    def test_discarded_instances_leave_no_trace(self, tmp_path, observations):
        writer = CorpusWriter(tmp_path, shard_size=50)
        for domain, records in observations.items():
            writer.add_records(domain, records)
            writer.end_instance(domain)
        writer.add_records("failed.example", list(observations["d0.example"]))
        writer.end_instance("failed.example")
        writer.discard_instance("failed.example")
        store = writer.finalise()
        assert "failed.example" not in store.observations
        assert store.n_toots == len(expected_unique(observations))

    def test_writer_is_single_use(self, tmp_path):
        writer = CorpusWriter(tmp_path)
        writer.finalise()
        with pytest.raises(DatasetError, match="already been finalised"):
            writer.finalise()
        with pytest.raises(DatasetError, match="already been finalised"):
            writer.add_page("a.example", [])

    def test_invalid_shard_size(self, tmp_path):
        with pytest.raises(DatasetError):
            CorpusWriter(tmp_path, shard_size=0)

    def test_empty_corpus_loads_but_dataset_refuses(self, tmp_path):
        store = CorpusWriter(tmp_path).finalise()
        assert store.n_toots == 0 and store.n_shards == 0
        assert list(store.iter_records()) == []
        with pytest.raises(DatasetError):
            TootsDataset.from_corpus(store)


# -- column bundle invariants ------------------------------------------------------


class TestTootColumns:
    def test_from_mapping_rejects_missing_columns(self):
        with pytest.raises(DatasetError, match="missing columns"):
            TootColumns.from_mapping({"url": np.asarray(["u"])})

    def test_validate_rejects_bad_indptr(self, tmp_path, observations):
        store = write_corpus(tmp_path, observations, N_SYNTH)
        columns = store.shard_columns(0)
        broken = {name: getattr(columns, name) for name in COLUMN_NAMES}
        broken["hashtag_indptr"] = columns.hashtag_indptr[:-1]
        with pytest.raises(DatasetError, match="hashtag_indptr"):
            TootColumns.from_mapping(broken)

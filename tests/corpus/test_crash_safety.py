"""Crash safety: journals, quarantine, resume, and fault-differential identity.

The proof obligations of the resilient-crawling layer:

* a crawl under injected faults, with retries enabled, produces a
  **byte-identical** corpus/graph store to the fault-free crawl
  (content digests over decompressed columns + stable manifest);
* a ``collect --corpus`` killed mid-crawl resumes from its journal to
  the same final corpus, without re-crawling sealed instances.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.corpus import CorpusStore, CorpusWriter, CrawlJournal, GraphWriter
from repro.corpus import sharded
from repro.corpus.journal import JOURNAL_NAME
from repro.corpus.sharded import SPOOL_MAGIC, SPOOL_TRAILER
from repro.crawler import (
    FaultInjector,
    FaultRates,
    FaultyTransport,
    FollowerGraphCrawler,
    ResilientTransport,
    RetryPolicy,
    SimulatedTransport,
    TootCrawler,
)
from tests.conftest import build_mini_network, ref


def chaos_network():
    """A mini fediverse with enough cross-instance structure to crawl."""
    net = build_mini_network()
    net.follow(ref("bob@beta.example"), ref("alice@alpha.example"))
    net.follow(ref("akira@alpha.example"), ref("alice@alpha.example"))
    net.follow(ref("alice@alpha.example"), ref("bob@beta.example"))
    for index in range(60):
        net.post_toot(ref("alice@alpha.example"), created_at=10 + index)
    for index in range(25):
        net.post_toot(ref("bob@beta.example"), created_at=200 + index)
    return net


def resilient_chaos_transport(network, seed=1, rate=0.2, attempts=12):
    """A transport with seeded faults wrapped in a generous retry layer."""
    return ResilientTransport(
        FaultyTransport(
            SimulatedTransport(network),
            FaultInjector(seed=seed, rates=FaultRates.uniform(rate)),
        ),
        policy=RetryPolicy(max_attempts=attempts, base_delay=0.0, max_delay=0.0),
    )


class TestCrawlJournal:
    def test_missing_file_replays_empty(self, tmp_path):
        replay = CrawlJournal.replay(tmp_path / JOURNAL_NAME)
        assert replay.progress == {}
        assert not replay.truncated_tail

    def test_events_fold_into_progress(self, tmp_path):
        journal = CrawlJournal(tmp_path / JOURNAL_NAME)
        journal.page("a.example", rows=40, max_id=900)
        journal.page("a.example", rows=12, max_id=500)
        journal.sealed("a.example")
        journal.page("b.example", rows=7)
        journal.discarded("c.example")
        journal.note("finalise_started")
        journal.close()

        replay = CrawlJournal.replay(journal.path)
        assert replay.sealed_domains() == {"a.example"}
        assert replay.open_domains() == {"b.example"}
        progress = replay.progress["a.example"]
        assert (progress.pages, progress.rows, progress.last_max_id) == (2, 52, 500)
        assert replay.progress["c.example"].state == "discarded"

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        journal = CrawlJournal(path)
        journal.sealed("a.example")
        journal.close()
        with path.open("a") as handle:
            handle.write('{"event": "page", "domain": "b.exa')  # killed mid-append
        replay = CrawlJournal.replay(path)
        assert replay.truncated_tail
        assert replay.sealed_domains() == {"a.example"}

    def test_corruption_elsewhere_raises(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_text('not json at all\n{"event": "sealed", "domain": "a"}\n')
        with pytest.raises(DatasetError):
            CrawlJournal.replay(path)

    def test_non_event_line_raises(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_text('[1, 2, 3]\n')
        with pytest.raises(DatasetError):
            CrawlJournal.replay(path)


class WriterKind:
    """One store's writer, crawler and file names, for parametrised tests."""

    def __init__(self, writer, crawler, shard_prefix, counts) -> None:
        self.writer = writer
        self.crawler = crawler
        self.shard_prefix = shard_prefix
        self.counts = counts  # the crawl result's per-instance row counts

    def crawl_one(self, network, writer, domain: str) -> int:
        """Crawl one instance into ``writer`` (sealing it); returns its rows."""
        minute = network.clock.window_minutes - 1
        crawler = self.crawler(SimulatedTransport(network), threads=2)
        if self.crawler is TootCrawler:
            return crawler._page_instance(domain, minute, [], writer)
        return crawler._crawl_into(writer, domain, minute)

    def crawl(self, network, writer):
        return self.crawler(SimulatedTransport(network), threads=2).crawl(sink=writer)


WRITER_KINDS = {
    "corpus": WriterKind(CorpusWriter, TootCrawler, "shard", "toot_counts"),
    "graph": WriterKind(GraphWriter, FollowerGraphCrawler, "edges", "edge_counts"),
}

#: A string column of each writer's spool (for old-layout spool files).
SPOOL_STRING_COLUMN = {CorpusWriter: "url", GraphWriter: "follower"}


def clean_digest(kind: WriterKind, network, directory) -> str:
    """The content digest of a fault-free, uninterrupted crawl."""
    writer = kind.writer(directory, shard_size=40)
    result = kind.crawl(network, writer)
    return writer.finalise(crawl_minute=result.crawl_minute).content_digest()


def split_spool(path: Path) -> tuple[bytes, dict]:
    """A spool file's member bytes and its decoded index."""
    data = path.read_bytes()
    index_size, _ = SPOOL_TRAILER.unpack(data[-SPOOL_TRAILER.size :])
    data_end = len(data) - SPOOL_TRAILER.size - index_size
    return data[:data_end], json.loads(data[data_end : -SPOOL_TRAILER.size])


def truncate_spool(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def corrupt_trailer(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: -len(SPOOL_MAGIC)] + b"NOTSPOOL")


def index_past_eof(path: Path) -> None:
    members, index = split_spool(path)
    entry = max(index.values(), key=lambda entry: entry["nbytes"])
    entry["offset"] = 8 * path.stat().st_size  # aligned, and past the end
    encoded = json.dumps(index).encode("utf-8")
    path.write_bytes(members + encoded + SPOOL_TRAILER.pack(len(encoded), SPOOL_MAGIC))


def code_outside_table(path: Path) -> None:
    """Point the first row's author-domain code one past the end of its table."""
    data = bytearray(path.read_bytes())
    _, index = split_spool(path)
    offset = index["author_domain_codes"]["offset"]
    table_rows = index["author_domain_offsets"]["shape"][0] - 1
    data[offset : offset + 4] = np.int32(table_rows).tobytes()
    path.write_bytes(bytes(data))


#: Ways a journal-sealed spool file can be damaged after its seal.
SPOOL_DAMAGE = {
    "truncated": truncate_spool,
    "bad-trailer": corrupt_trailer,
    "index-past-eof": index_past_eof,
    "code-outside-table": code_outside_table,
}

#: Damage to a coded column, which only the corpus spool has.
CORPUS_ONLY_DAMAGE = {"code-outside-table"}

#: Every (writer kind, damage) pair that applies.
DAMAGE_CASES = [
    (kind, damage)
    for kind in sorted(WRITER_KINDS)
    for damage in sorted(SPOOL_DAMAGE)
    if kind == "corpus" or damage not in CORPUS_ONLY_DAMAGE
]

#: The numeric members of a corpus spool.
VALUE_MEMBERS = (
    "toot_id", "created_minute", "is_boost", "sensitive", "media_attachments",
    "favourites", "hashtag_indptr",
)


def rewrite_in_string_layout(path: Path) -> None:
    """Rewrite a corpus spool as sealed before coded columns: four string columns."""
    spool = CorpusWriter.spool_class.open(path)
    members = {name: np.array(spool.values(name)) for name in VALUE_MEMBERS}
    strings = {"url": spool.strings("url", 0, spool.rows("url"))}
    for name in ("account", "author_domain", "hashtag_flat"):
        table = spool.table(name)
        strings[name] = [table[code] for code in spool.codes(name).tolist()]
    del spool
    with sharded.SpoolFile(path) as old:
        for name, array in members.items():
            old.add(name, array)
        for name, values in strings.items():
            old.add_strings(name, values)


@pytest.fixture(params=sorted(WRITER_KINDS))
def kind(request) -> WriterKind:
    return WRITER_KINDS[request.param]


class TestWriterRecovery:
    def test_fresh_writer_refuses_leftover_journal(self, tmp_path, kind):
        journal = CrawlJournal(tmp_path / JOURNAL_NAME)
        journal.page("a.example", rows=3)
        journal.close()
        with pytest.raises(DatasetError, match="resume=True"):
            kind.writer(tmp_path)

    def test_resume_trusts_sealed_and_quarantines_the_rest(self, tmp_path, kind):
        network = chaos_network()
        writer = kind.writer(tmp_path, shard_size=40)
        rows = kind.crawl_one(network, writer, "alpha.example")
        assert rows > 0
        # simulate a crash that left a half-written spool dir behind, plus
        # the partial and orphaned outputs of an interrupted finalise
        ghost = tmp_path / "spool" / "ghost.example.part"
        ghost.mkdir()
        (ghost / "url_bytes.npy").write_bytes(b"partial")
        (tmp_path / f"{kind.shard_prefix}-00000.npz").write_bytes(b"orphaned shard")
        (tmp_path / f"{kind.shard_prefix}-00001.npz.part").write_bytes(b"partial shard")
        (tmp_path / "tables.npz").write_bytes(b"orphaned tables")
        writer._journal.close()

        resumed = kind.writer(tmp_path, shard_size=40, resume=True)
        assert resumed.sealed_domains() == {"alpha.example"}
        assert resumed.resumed_domains() == {"alpha.example"}
        assert resumed.resumed_rows() == {"alpha.example": rows}
        quarantined = sorted(p.name for p in (tmp_path / "quarantine").iterdir())
        assert quarantined == sorted([
            "ghost.example.part",
            f"{kind.shard_prefix}-00000.npz",
            f"{kind.shard_prefix}-00001.npz.part",
            "tables.npz",
        ])
        resumed._journal.close()

    @pytest.mark.parametrize(("kind", "damage"), DAMAGE_CASES, indirect=["kind"])
    def test_damaged_sealed_spool_is_quarantined_and_recrawled(
        self, tmp_path, kind, damage
    ):
        network = chaos_network()
        first = kind.writer(tmp_path / "interrupted", shard_size=40)
        assert kind.crawl_one(network, first, "alpha.example") > 0
        first._journal.close()  # "crash" before the other instances
        SPOOL_DAMAGE[damage](tmp_path / "interrupted" / "spool" / "alpha.example.spool")

        resumed = kind.writer(tmp_path / "interrupted", shard_size=40, resume=True)
        assert resumed.sealed_domains() == set()
        quarantined = [p.name for p in (tmp_path / "interrupted" / "quarantine").iterdir()]
        assert quarantined == ["alpha.example.spool"]
        result = kind.crawl(network, resumed)
        assert result.resumed == []
        store = resumed.finalise(crawl_minute=result.crawl_minute)
        assert store.content_digest() == clean_digest(kind, network, tmp_path / "clean")

    @pytest.mark.parametrize(("kind", "damage"), DAMAGE_CASES, indirect=["kind"])
    def test_damaged_sealed_spool_fails_finalise_by_name(self, tmp_path, kind, damage):
        network = chaos_network()
        writer = kind.writer(tmp_path, shard_size=40)
        kind.crawl_one(network, writer, "alpha.example")
        spool = tmp_path / "spool" / "alpha.example.spool"
        SPOOL_DAMAGE[damage](spool)
        with pytest.raises(DatasetError) as excinfo:
            writer.finalise(crawl_minute=0)
        assert str(spool) in str(excinfo.value)
        writer._journal.close()

    def test_old_layout_spool_directory_is_quarantined(self, tmp_path, kind):
        network = chaos_network()
        writer = kind.writer(tmp_path / "interrupted", shard_size=40)
        kind.crawl_one(network, writer, "alpha.example")
        # a spool sealed by the older one-.npy-per-member layout
        old = tmp_path / "interrupted" / "spool" / "beta.example"
        old.mkdir()
        column = SPOOL_STRING_COLUMN[kind.writer]
        np.save(old / f"{column}_bytes.npy", np.frombuffer(b"x", np.uint8))
        np.save(old / f"{column}_offsets.npy", np.array([0, 2], np.int64))
        writer._journal.sealed("beta.example")
        writer._journal.close()

        resumed = kind.writer(tmp_path / "interrupted", shard_size=40, resume=True)
        assert resumed.sealed_domains() == {"alpha.example"}
        quarantined = [p.name for p in (tmp_path / "interrupted" / "quarantine").iterdir()]
        assert quarantined == ["beta.example"]
        result = kind.crawl(network, resumed)
        assert result.resumed == ["alpha.example"]
        store = resumed.finalise(crawl_minute=result.crawl_minute)
        assert store.content_digest() == clean_digest(kind, network, tmp_path / "clean")

    def test_string_layout_corpus_spool_is_quarantined_and_recrawled(self, tmp_path):
        kind = WRITER_KINDS["corpus"]
        network = chaos_network()
        first = kind.writer(tmp_path / "interrupted", shard_size=40)
        assert kind.crawl_one(network, first, "alpha.example") > 0
        first._journal.close()  # "crash" before the other instances
        rewrite_in_string_layout(tmp_path / "interrupted" / "spool" / "alpha.example.spool")

        resumed = kind.writer(tmp_path / "interrupted", shard_size=40, resume=True)
        assert resumed.sealed_domains() == set()
        quarantined = [p.name for p in (tmp_path / "interrupted" / "quarantine").iterdir()]
        assert quarantined == ["alpha.example.spool"]
        result = kind.crawl(network, resumed)
        assert result.resumed == []
        store = resumed.finalise(crawl_minute=result.crawl_minute)
        assert store.content_digest() == clean_digest(kind, network, tmp_path / "clean")

    def test_resumed_crawl_skips_sealed_instances(self, tmp_path, kind):
        network = chaos_network()
        minute = network.clock.window_minutes - 1

        first = kind.writer(tmp_path / "interrupted", shard_size=40)
        rows = kind.crawl_one(network, first, "alpha.example")
        first._journal.close()  # "crash" before the other instances

        resumed_writer = kind.writer(tmp_path / "interrupted", shard_size=40, resume=True)
        transport = SimulatedTransport(network)
        result = kind.crawler(transport, threads=2).crawl(sink=resumed_writer)
        assert result.resumed == ["alpha.example"]
        assert getattr(result, kind.counts)["alpha.example"] == rows
        # not a single request went to the sealed instance
        assert "alpha.example" not in transport.stats.by_domain
        resumed_store = resumed_writer.finalise(
            crawl_minute=minute, coverage=result.coverage().as_dict()
        )
        assert result.coverage().instances_resumed == 1

        clean_writer = kind.writer(tmp_path / "clean", shard_size=40)
        clean = kind.crawl(network, clean_writer)
        clean_store = clean_writer.finalise(
            crawl_minute=minute, coverage=clean.coverage().as_dict()
        )
        assert resumed_store.content_digest() == clean_store.content_digest()
        assert not (tmp_path / "interrupted" / JOURNAL_NAME).exists()

    def test_discard_after_resume_forgets_the_instance(self, tmp_path, kind):
        network = chaos_network()
        writer = kind.writer(tmp_path, shard_size=40)
        kind.crawl_one(network, writer, "alpha.example")
        writer._journal.close()
        resumed = kind.writer(tmp_path, shard_size=40, resume=True)
        resumed.discard_instance("alpha.example")
        assert resumed.sealed_domains() == set()
        assert resumed.resumed_domains() == set()
        resumed._journal.close()

    def test_coverage_lands_in_manifest_and_store(self, tmp_path, kind):
        network = chaos_network()
        writer = kind.writer(tmp_path, shard_size=40)
        result = kind.crawl(network, writer)
        coverage = result.coverage().as_dict()
        store = writer.finalise(crawl_minute=result.crawl_minute, coverage=coverage)
        assert store.coverage == coverage
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["coverage"] == coverage

    def test_finalise_killed_mid_merge_resumes_to_the_clean_store(
        self, tmp_path, kind, monkeypatch
    ):
        network = chaos_network()
        clean_writer = kind.writer(tmp_path / "clean", shard_size=1)
        clean = kind.crawl(network, clean_writer)
        clean_store = clean_writer.finalise(crawl_minute=clean.crawl_minute)

        writer = kind.writer(tmp_path / "killed", shard_size=1)
        result = kind.crawl(network, writer)

        def crash(target, text):
            (target.parent / (target.name + ".part")).write_text(text[:10])
            raise OSError("killed while writing the manifest")

        # the shards and tables are on disk when the manifest write dies
        monkeypatch.setattr(sharded, "atomic_write_text", crash)
        with pytest.raises(OSError, match="killed"):
            writer.finalise(crawl_minute=result.crawl_minute)
        monkeypatch.undo()
        writer._journal.close()
        killed = tmp_path / "killed"
        orphans = sorted(p.name for p in killed.glob(f"{kind.shard_prefix}-*.npz"))
        assert len(orphans) > 1 and (killed / "tables.npz").exists()

        resumed = kind.writer(killed, shard_size=1, resume=True)
        assert resumed.resumed_domains() == set(getattr(result, kind.counts))
        quarantined = sorted(p.name for p in (killed / "quarantine").iterdir())
        assert quarantined == sorted(orphans + ["manifest.json.part", "tables.npz"])
        store = resumed.finalise(crawl_minute=result.crawl_minute)
        assert store.content_digest() == clean_store.content_digest()
        assert not (killed / JOURNAL_NAME).exists()
        assert not (killed / "spool").exists()


@pytest.mark.parametrize("shard_size", [1, None])
class TestFaultDifferential:
    """Seeded faults × retries ⇒ byte-identical stores to the fault-free crawl."""

    def test_corpus_identical_under_faults(self, tmp_path, shard_size):
        network = chaos_network()
        kwargs = {} if shard_size is None else {"shard_size": shard_size}

        plain_writer = CorpusWriter(tmp_path / "plain", **kwargs)
        plain = TootCrawler(SimulatedTransport(network), threads=2).crawl(
            sink=plain_writer
        )
        plain_store = plain_writer.finalise(
            crawl_minute=plain.crawl_minute, coverage=plain.coverage().as_dict()
        )

        chaos_writer = CorpusWriter(tmp_path / "chaos", **kwargs)
        chaotic = TootCrawler(
            resilient_chaos_transport(network), threads=2
        ).crawl(sink=chaos_writer)
        chaos_store = chaos_writer.finalise(
            crawl_minute=chaotic.crawl_minute, coverage=chaotic.coverage().as_dict()
        )

        assert chaotic.coverage().complete
        assert chaos_store.content_digest() == plain_store.content_digest()

    def test_graph_identical_under_faults(self, tmp_path, shard_size):
        network = chaos_network()
        kwargs = {} if shard_size is None else {"shard_size": shard_size}

        plain_writer = GraphWriter(tmp_path / "plain", **kwargs)
        plain = FollowerGraphCrawler(SimulatedTransport(network), threads=2).crawl(
            sink=plain_writer
        )
        plain_store = plain_writer.finalise(
            crawl_minute=plain.crawl_minute, coverage=plain.coverage().as_dict()
        )

        chaos_writer = GraphWriter(tmp_path / "chaos", **kwargs)
        chaotic = FollowerGraphCrawler(
            resilient_chaos_transport(network, seed=2), threads=2
        ).crawl(sink=chaos_writer)
        chaos_store = chaos_writer.finalise(
            crawl_minute=chaotic.crawl_minute, coverage=chaotic.coverage().as_dict()
        )

        assert chaotic.coverage().complete
        assert chaos_store.content_digest() == plain_store.content_digest()


class TestKilledCollectResumes:
    """SIGKILL a ``collect --corpus`` subprocess, resume it, compare digests."""

    PRESET = "tiny"
    SEED = 11

    def collect_argv(self, corpus_dir: Path, resume: bool = False) -> list[str]:
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "collect",
            "--corpus",
            str(corpus_dir),
            "--preset",
            self.PRESET,
            "--seed",
            str(self.SEED),
            "--politeness",
            "0.002",  # widen the crash window without slowing resume much
        ]
        return argv + (["--resume"] if resume else [])

    def test_resume_after_sigkill_matches_clean_collect(self, tmp_path, tiny_store):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        corpus_dir = tmp_path / "killed"

        victim = subprocess.Popen(
            self.collect_argv(corpus_dir),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal = corpus_dir / JOURNAL_NAME
        deadline = time.monotonic() + 120
        # wait until the crawl is journaling progress, then kill it cold
        while time.monotonic() < deadline and victim.poll() is None:
            if journal.exists() and journal.stat().st_size > 200:
                victim.send_signal(signal.SIGKILL)
                break
            time.sleep(0.02)
        victim.wait(timeout=120)

        interrupted = journal.exists()
        if interrupted:
            # the journal survived the kill: resume must finish the crawl
            resume = subprocess.run(
                self.collect_argv(corpus_dir, resume=True),
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert resume.returncode == 0, resume.stderr
            assert not journal.exists()
        # (if the process won the race and finalised, the store is
        # complete already and the comparison below still holds)
        assert (corpus_dir / "manifest.json").exists()

        store = CorpusStore(corpus_dir)
        # tiny_store is the session-scoped clean crawl of the same
        # scenario (preset=tiny, seed=11) at a different shard size, so
        # compare decoded content, not digests: same instances, same
        # per-instance observation counts, same unique-toot catalogue
        assert store.observations == tiny_store.observations
        assert store.n_toots == tiny_store.n_toots
        assert list(store.urls()) == list(tiny_store.urls())

"""Dataset export: persist anonymised measurement artefacts to disk.

Shows the data-release workflow the paper followed: collect the three
datasets, anonymise all user-identifying fields, and write JSON-lines
files (snapshots, toots, follower edges) that the analysis layer can be
re-run from without the simulator — plus the same toot catalogue as a
**columnar corpus** (integer-coded ``.npz`` shards + manifest, see
:mod:`repro.corpus`), the format every dataset and placement is built
from.

Run with::

    python examples/dataset_export.py [output_dir]
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from repro import CrawlSession, build_scenario
from repro.corpus import CorpusWriter
from repro.crawler import FollowerGraphCrawler, TootCrawler
from repro.datasets import (
    Anonymiser,
    GraphDataset,
    TootsDataset,
    load_edges,
    load_toot_records,
    save_edges,
    save_snapshots,
    save_toot_records,
)


def main(output_dir: str = "dataset_export") -> None:
    output = Path(output_dir)
    network = build_scenario("tiny", seed=99)

    # The monitor's snapshots, and the crawls in record mode: the export
    # writes one row per observation, which no store keeps.  The session
    # supplies the transport and the crawl width.
    crawl = CrawlSession(network)
    log = crawl.monitor(24 * 60)
    toot_crawl = TootCrawler(crawl.transport, **crawl.crawl_options).crawl()
    graph_crawl = FollowerGraphCrawler(crawl.transport, **crawl.crawl_options).crawl()

    anonymiser = Anonymiser()
    toot_records = anonymiser.anonymise_toots(toot_crawl.all_records())
    edges = anonymiser.anonymise_edges(graph_crawl.edges)

    snapshot_count = save_snapshots(output / "instance_snapshots.jsonl", log)
    toot_count = save_toot_records(output / "toots.jsonl", toot_records)
    edge_count = save_edges(output / "follower_edges.jsonl", edges)
    print(f"wrote {snapshot_count} snapshots, {toot_count} toot records, {edge_count} edges to {output}/")
    print(f"anonymisation salt (keep private to re-link future crawls): {anonymiser.salt}")

    # The same catalogue in the columnar corpus format: anonymised records
    # stream through the corpus writer instance by instance, so the export
    # demonstrates both the JSONL row format and the integer-coded shards.
    corpus_dir = output / "corpus"
    shutil.rmtree(corpus_dir, ignore_errors=True)
    writer = CorpusWriter(corpus_dir, shard_size=2_000)
    for domain, records in toot_crawl.records_by_instance.items():
        writer.add_records(domain, anonymiser.anonymise_toots(records))
        writer.end_instance(domain)
    store = writer.finalise(crawl_minute=toot_crawl.crawl_minute)
    print(
        f"wrote the columnar corpus to {corpus_dir}/: {store.n_toots} unique toots "
        f"in {store.n_shards} shard(s), {store.nbytes() / 2**20:.2f} MiB on disk"
    )

    # Round-trip: rebuild the datasets purely from the exported files.  Each
    # exported row names the instance it was observed on, so the rows stream
    # back into a (temporary) corpus instance by instance, which de-duplicates
    # them again.
    observed: dict[str, list] = {}
    for record in load_toot_records(output / "toots.jsonl"):
        observed.setdefault(record.collected_from, []).append(record)
    reloaded_graphs = GraphDataset.from_edges(load_edges(output / "follower_edges.jsonl"))
    corpus_toots = TootsDataset.from_corpus(store)
    with tempfile.TemporaryDirectory(prefix="reloaded-corpus-") as scratch:
        writer = CorpusWriter(scratch)
        for domain, records in observed.items():
            writer.add_records(domain, records)
            writer.end_instance(domain)
        reloaded_toots = TootsDataset.from_corpus(writer.finalise())
        assert len(corpus_toots) == len(reloaded_toots)
        print(
            f"reloaded: {len(reloaded_toots)} unique toots from "
            f"{reloaded_toots.author_count()} pseudonymous authors, "
            f"{reloaded_graphs.user_count()} accounts / {reloaded_graphs.follow_edge_count()} edges"
        )
    print(
        f"corpus-backed dataset answers without records: "
        f"{corpus_toots.author_count()} authors, {corpus_toots.boost_count()} boosts"
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "dataset_export")

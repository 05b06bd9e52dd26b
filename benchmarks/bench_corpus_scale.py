"""The columnar corpus at the `large` preset: crawl, merge, placements, reads.

Every crawl streams into the columnar corpus (:mod:`repro.corpus`):
pages are encoded into integer column spools as they arrive, merged
into on-disk ``.npz`` shards, and placements build straight from the
columns.  This benchmark measures that path at scale:

* peak RSS of the crawl+placement phase (measured via the Linux
  ``/proc/self/clear_refs`` high-water-mark reset, so the scenario
  network baseline is excluded);
* crawl, merge and placement (no-replication plus seeded random) times;
* the on-disk size, and write and read throughput.

It checks that every observed row reached the corpus and gates nothing
else.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_corpus_scale.py [--preset large]

The default preset is ``large`` (~1M unique toots, a few minutes);
``--preset medium`` is a quicker, smaller run.
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
import time

PRESET = "large"
SEED = 7
N_REPLICAS = 3
PLACEMENT_SEED = 7
COLUMNS = (
    "url", "toot_id", "home_code", "author_code", "collected_code",
    "created_minute", "is_boost", "sensitive", "media_attachments",
    "favourites", "hashtag_codes", "hashtag_indptr",
)


# -- phase-scoped peak RSS ---------------------------------------------------------


def _vm_kib(field: str) -> int | None:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _reset_peak_rss() -> bool:
    """Reset the process RSS high-water mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


# -- the measured run --------------------------------------------------------------


def measure(preset: str = PRESET) -> dict:
    from repro import build_scenario
    from repro.corpus import CorpusWriter
    from repro.crawler import SimulatedTransport, TootCrawler
    from repro.engine.placement import PlacementArrays

    network = build_scenario(preset, seed=SEED)
    crawler = TootCrawler(SimulatedTransport(network), threads=8)
    candidates = network.domains()

    peak_scoped = _reset_peak_rss()
    baseline_kib = _vm_kib("VmRSS:") or 0
    corpus_dir = tempfile.mkdtemp(prefix="bench-corpus-")
    try:
        writer = CorpusWriter(corpus_dir)
        start = time.perf_counter()
        result = crawler.crawl(sink=writer)
        crawl_seconds = time.perf_counter() - start
        start = time.perf_counter()
        store = writer.finalise(crawl_minute=result.crawl_minute)
        finalise_seconds = time.perf_counter() - start
        assert store.n_observations == sum(result.toot_counts.values()), (
            "the corpus lost observed rows"
        )

        start = time.perf_counter()
        PlacementArrays.from_corpus(store, "none")
        PlacementArrays.from_corpus(
            store,
            "random",
            candidate_domains=candidates,
            n_replicas=N_REPLICAS,
            seed=PLACEMENT_SEED,
        )
        placement_seconds = time.perf_counter() - start

        # read throughput: one full pass over every column of every shard
        start = time.perf_counter()
        read_bytes = sum(
            getattr(columns, name).nbytes
            for _, columns in store.iter_columns()
            for name in COLUMNS
        )
        read_seconds = time.perf_counter() - start
        peak_kib = _vm_kib("VmHWM:") or 0
        corpus_bytes = store.nbytes()
        return {
            "preset": preset,
            "n_toots": store.n_toots,
            "peak_is_phase_scoped": peak_scoped,
            "corpus_peak_bytes": max(0, peak_kib - baseline_kib) * 1024,
            "corpus_crawl_seconds": crawl_seconds,
            "corpus_finalise_seconds": finalise_seconds,
            "corpus_placement_seconds": placement_seconds,
            "corpus_bytes": corpus_bytes,
            "corpus_shards": store.n_shards,
            "write_mib_per_second": corpus_bytes
            / 2**20
            / (crawl_seconds + finalise_seconds),
            "read_seconds": read_seconds,
            "read_mib_per_second": read_bytes / 2**20 / read_seconds,
        }
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default=PRESET)
    args = parser.parse_args(argv)

    measured = measure(args.preset)
    scope = "" if measured["peak_is_phase_scoped"] else " (process lifetime: no clear_refs)"
    print(f"columnar corpus — '{measured['preset']}' preset, "
          f"{measured['n_toots']:,} unique toots")
    print(f"  crawl+placement peak : {measured['corpus_peak_bytes'] / 2**20:8.1f} MiB{scope}")
    print(f"  times                : crawl {measured['corpus_crawl_seconds']:.1f}s, "
          f"merge {measured['corpus_finalise_seconds']:.1f}s, "
          f"placements {measured['corpus_placement_seconds']:.1f}s")
    print(f"  corpus on disk       : {measured['corpus_bytes'] / 2**20:8.1f} MiB "
          f"in {measured['corpus_shards']} shard(s)")
    print(f"  write throughput     : {measured['write_mib_per_second']:8.1f} MiB/s "
          "(crawl + merge, end to end)")
    print(f"  read throughput      : {measured['read_mib_per_second']:8.1f} MiB/s "
          f"(full column pass in {measured['read_seconds']:.2f}s)")

    try:
        from benchmarks.perf_log import record
    except ImportError:  # run as a script: benchmarks/ itself is on sys.path
        from perf_log import record

    path = record(
        "corpus_scale",
        {
            key: round(value, 4) if isinstance(value, float) else value
            for key, value in measured.items()
        },
    )
    print(f"  recorded             : {path}")


if __name__ == "__main__":
    main()

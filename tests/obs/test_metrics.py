"""MetricsRegistry contract: exact merges under threads, Prometheus text."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs import HISTOGRAM_BUCKETS, MetricsRegistry


def test_counter_basics_and_labels():
    registry = MetricsRegistry()
    registry.inc("requests_total")
    registry.inc("requests_total", 2)
    registry.inc("requests_total", domain="a.example")
    assert registry.counter_value("requests_total") == 3
    assert registry.counter_value("requests_total", domain="a.example") == 1
    assert registry.counter_value("requests_total", domain="missing") == 0


def test_gauges_are_last_write_wins():
    registry = MetricsRegistry()
    assert registry.gauge_value("utilisation") is None
    registry.set_gauge("utilisation", 0.25)
    registry.set_gauge("utilisation", 0.75)
    assert registry.gauge_value("utilisation") == 0.75


def test_histogram_buckets_are_log_scale_and_cover_microseconds_to_minutes():
    assert HISTOGRAM_BUCKETS[0] == pytest.approx(2.0**-20)
    assert HISTOGRAM_BUCKETS[-1] == pytest.approx(1024.0)
    ratios = {
        b / a for a, b in zip(HISTOGRAM_BUCKETS, HISTOGRAM_BUCKETS[1:])
    }
    assert ratios == {2.0}


def test_histogram_observations_land_in_cumulative_buckets():
    registry = MetricsRegistry(buckets=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.005, 0.005, 0.05, 5.0):
        registry.observe("latency_seconds", value)
    count, total = registry.histogram_stats("latency_seconds")
    assert count == 5
    assert total == pytest.approx(0.0605 + 5.0)
    text = registry.render_prometheus()
    assert 'latency_seconds_bucket{le="0.001"} 1' in text
    assert 'latency_seconds_bucket{le="0.01"} 3' in text
    assert 'latency_seconds_bucket{le="0.1"} 4' in text
    assert 'latency_seconds_bucket{le="+Inf"} 5' in text
    assert "latency_seconds_count 5" in text


def test_n_threads_hammering_counters_and_histograms_merge_exactly():
    registry = MetricsRegistry()
    n_threads, per_thread = 8, 10_000
    barrier = threading.Barrier(n_threads)

    def worker(tag):
        barrier.wait()
        for i in range(per_thread):
            registry.inc("hits_total")
            registry.inc("hits_total", 2, shard=str(tag % 2))
            registry.observe("work_seconds", 0.001 * ((i % 10) + 1))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert registry.counter_value("hits_total") == n_threads * per_thread
    assert (
        registry.counter_value("hits_total", shard="0")
        + registry.counter_value("hits_total", shard="1")
        == 2 * n_threads * per_thread
    )
    count, total = registry.histogram_stats("work_seconds")
    assert count == n_threads * per_thread
    expected_sum = n_threads * sum(0.001 * ((i % 10) + 1) for i in range(per_thread))
    assert total == pytest.approx(expected_sum)


def test_merged_reads_are_safe_while_writers_run():
    registry = MetricsRegistry()
    stop = threading.Event()

    def writer(tag):
        i = 0
        while not stop.is_set():
            registry.inc(f"metric_{tag}_{i % 50}_total")
            registry.observe("obs_seconds", 0.001, tag=str(i % 50))
            i += 1

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(50):
            registry.render_prometheus()
            registry.snapshot()
    finally:
        stop.set()
        for thread in threads:
            thread.join()


def test_finished_threads_shards_are_folded_and_still_counted():
    registry = MetricsRegistry(buckets=(0.1, 1.0))

    def worker():
        registry.inc("hits_total")
        registry.observe("work_seconds", 0.5)

    for _ in range(200):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert len(registry._shards) <= 16
    assert registry.counter_value("hits_total") == 200
    assert registry.histogram_stats("work_seconds") == (200, 100.0)
    assert 'work_seconds_bucket{le="1.0"} 200' in registry.render_prometheus()


def test_a_fold_does_not_change_a_shard_list_a_reader_copied():
    registry = MetricsRegistry()

    def worker():
        registry.inc("hits_total")

    for _ in range(10):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    copied = list(registry._shards)  # what a merge in progress holds
    with registry._lock:
        registry._retire_finished()
    assert len(registry._shards) == 1
    for shards in (copied, registry._shards):
        assert sum(shard.counters.get(("hits_total", ()), 0.0) for shard in shards) == 10


def test_prometheus_rendering_types_labels_and_escaping():
    registry = MetricsRegistry()
    registry.describe("requests_total", "Requests served.")
    registry.inc("requests_total", 3, endpoint="/availability", status="200")
    registry.set_gauge("utilisation", 0.5, pool="engine")
    registry.observe("latency_seconds", 0.002, endpoint="/meta")
    registry.inc("odd_total", 1, note='say "hi"\nplease')
    text = registry.render_prometheus()
    assert "# HELP requests_total Requests served." in text
    assert "# TYPE requests_total counter" in text
    assert 'requests_total{endpoint="/availability",status="200"} 3' in text
    assert "# TYPE utilisation gauge" in text
    assert 'utilisation{pool="engine"} 0.5' in text
    assert "# TYPE latency_seconds histogram" in text
    assert 'latency_seconds_sum{endpoint="/meta"} 0.002' in text
    assert 'latency_seconds_count{endpoint="/meta"} 1' in text
    assert '\\"hi\\"' in text and "\\n" in text
    assert text.endswith("\n")


def test_label_order_is_canonical():
    registry = MetricsRegistry()
    registry.inc("x_total", b="2", a="1")
    registry.inc("x_total", a="1", b="2")
    assert registry.counter_value("x_total", a="1", b="2") == 2
    assert registry.render_prometheus().count('x_total{a="1",b="2"}') == 1


def test_reset_clears_everything_including_other_threads_shards():
    registry = MetricsRegistry()

    def worker():
        registry.inc("hits_total", 5)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    registry.inc("hits_total", 1)
    registry.set_gauge("g", 1.0)
    assert registry.counter_value("hits_total") == 6
    registry.reset()
    assert registry.counter_value("hits_total") == 0
    assert registry.gauge_value("g") is None
    registry.inc("hits_total")
    assert registry.counter_value("hits_total") == 1


def test_snapshot_is_json_ready():
    registry = MetricsRegistry()
    registry.inc("hits_total", 2, kind="a")
    registry.set_gauge("depth", 3)
    registry.observe("latency_seconds", 0.5)
    snap = registry.snapshot()
    assert snap["counters"] == {'hits_total{kind="a"}': 2.0}
    assert snap["gauges"] == {"depth": 3.0}
    assert snap["histograms"] == {"latency_seconds": {"count": 1, "sum": 0.5}}


def test_guarded_facade_helpers_only_record_when_enabled():
    registry = obs.metrics()
    obs.disable_metrics()
    before = registry.counter_value("facade_test_total")
    obs.count("facade_test_total")
    obs.observe("facade_test_seconds", 1.0)
    obs.set_gauge("facade_test_gauge", 1.0)
    assert registry.counter_value("facade_test_total") == before
    obs.enable_metrics()
    try:
        obs.count("facade_test_total")
        assert registry.counter_value("facade_test_total") == before + 1
        assert obs.active()
    finally:
        obs.disable_metrics()


def test_empty_registry_renders_empty_exposition():
    assert MetricsRegistry().render_prometheus() == ""

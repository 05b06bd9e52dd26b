"""Concurrent readers get bit-identical answers to serial execution.

The service's contract: one-time builds are lock-serialised (and run
exactly once even when threads race a cold service), and everything
after is read-only — so N threads issuing mixed queries must produce
byte-for-byte the answers a single thread gets.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np

from repro.engine.placement import PlacementArrays
from repro.serve import AvailabilityService, handle_query

N_THREADS = 8


def mixed_queries(service) -> list[tuple[str, dict[str, str]]]:
    """A deterministic batch of queries spanning every verb and shape."""
    authors = [str(a) for a in service.corpus.authors.tolist()]
    domains = [str(d) for d in service.corpus.domains.tolist()]
    queries: list[tuple[str, dict[str, str]]] = [("meta", {})]
    for i, user in enumerate(authors[:6]):
        queries.append((
            "availability",
            {"user": user, "strategy": ("no-rep", "s-rep")[i % 2], "k": str(i * 3)},
        ))
        queries.append(("timeline", {"user": user, "strategy": "s-rep", "k": "5"}))
    for i, domain in enumerate(domains[:4]):
        queries.append((
            "availability",
            {"instance": domain, "failure": "instances/by_users", "k": str(i)},
        ))
        queries.append(("best_placement", {"home": domain, "n_replicas": "2"}))
    queries.append(("availability", {"strategy": "no-rep", "k": "10"}))
    queries.append(("availability", {"strategy": "s-rep", "k": "10"}))
    return queries


def answer_all(service, queries) -> list[str]:
    answers = []
    for verb, params in queries:
        payload = dict(handle_query(service, verb, params))
        # `meta` carries one inherently volatile key; everything else in
        # the answer must still match bit-for-bit
        payload.pop("uptime_seconds", None)
        answers.append(json.dumps(payload, sort_keys=True))
    return answers


def test_concurrent_answers_equal_serial(service):
    # warm first so `meta` (which reports built strategies) is stable
    service.warm(["no-rep", "s-rep"])
    queries = mixed_queries(service)
    serial = answer_all(service, queries)

    results: list[list[str] | None] = [None] * N_THREADS
    errors: list[BaseException] = []
    barrier = threading.Barrier(N_THREADS)

    def worker(slot: int) -> None:
        try:
            barrier.wait()
            # each thread walks the batch from a different offset so the
            # same (strategy, failure) pairs are hit in different orders
            rotated = queries[slot:] + queries[:slot]
            answers = answer_all(service, rotated)
            results[slot] = answers[-slot:] + answers[:-slot] if slot else answers
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    for slot, answers in enumerate(results):
        assert answers is not None, f"thread {slot} never finished"
        assert answers == serial, f"thread {slot} diverged from serial answers"


def test_cold_service_races_build_exactly_once(serve_corpus_dir, serve_graph_dir):
    """Threads racing a cold service trigger each one-time build once."""
    cold = AvailabilityService(serve_corpus_dir, serve_graph_dir, mmap=True)
    # `meta` reports build progress, so it is not stable while cold
    queries = [q for q in mixed_queries(cold) if q[0] != "meta"]

    reference = AvailabilityService(serve_corpus_dir, serve_graph_dir, mmap=True)
    serial = answer_all(reference, queries)

    results: list[list[str] | None] = [None] * N_THREADS
    errors: list[BaseException] = []
    barrier = threading.Barrier(N_THREADS)

    def worker(slot: int) -> None:
        try:
            barrier.wait()
            results[slot] = answer_all(cold, queries)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert all(answers == serial for answers in results)
    # the build-once guarantee, observable: the race built two strategies,
    # not 2 * N_THREADS
    assert cold.build_counters["strategies_built"] == 2
    assert cold.build_counters["row_indexes_built"] == 3

def test_held_on_build_holds_up_no_other_query(
    serve_corpus_dir, serve_graph_dir, monkeypatch
):
    """A first ``held_on`` query finds its rows outside the service lock.

    The row search is held for up to 5 s; a user query issued meanwhile
    must answer at once, not wait for it.
    """
    service = AvailabilityService(serve_corpus_dir, serve_graph_dir, mmap=True)
    service.warm(["no-rep", "s-rep"])
    user = str(service.corpus.authors[0])
    domain = str(service.corpus.domains[0])
    searching = threading.Event()
    release = threading.Event()
    rows_holding = PlacementArrays.rows_holding

    def held_back(arrays, instance):
        searching.set()
        release.wait(5.0)
        return rows_holding(arrays, instance)

    monkeypatch.setattr(PlacementArrays, "rows_holding", held_back)
    held: list[dict] = []
    query = threading.Thread(
        target=lambda: held.append(
            handle_query(
                service, "availability", {"held_on": domain, "strategy": "s-rep", "k": "3"}
            )
        )
    )
    query.start()
    try:
        assert searching.wait(5.0)
        started = time.perf_counter()
        answer = handle_query(
            service, "availability", {"user": user, "strategy": "s-rep", "k": "3"}
        )
        elapsed = time.perf_counter() - started
    finally:
        release.set()
        query.join(10.0)
    assert "error" not in answer
    assert elapsed < 0.1, f"the user query waited {elapsed:.3f} s on the held_on search"
    assert held and held[0]["held_on"] == domain
    assert service.rows_held_on("s-rep", domain) is service.rows_held_on("s-rep", domain)


def test_racing_held_on_searches_share_one_cached_array(serve_corpus_dir, serve_graph_dir):
    """Threads racing cold ``held_on`` searches all get the first cached array."""
    service = AvailabilityService(serve_corpus_dir, serve_graph_dir, mmap=True)
    domains = [str(d) for d in service.corpus.domains.tolist()]
    arrays = service.state_for("s-rep").arrays
    results: list[list | None] = [None] * N_THREADS
    errors: list[BaseException] = []
    barrier = threading.Barrier(N_THREADS)

    def worker(slot: int) -> None:
        try:
            barrier.wait()
            results[slot] = [service.rows_held_on("s-rep", d) for d in domains]
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)
    for index, domain in enumerate(domains):
        first = results[0][index]
        assert all(rows[index] is first for rows in results), domain
        assert np.array_equal(first, arrays.rows_holding(domain)), domain

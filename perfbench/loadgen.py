"""The HTTP load generator: a seeded query mix, skewed as the corpus is.

The mix: 50% ``/availability?user=``, 20% ``/timeline``, 15%
``/availability?instance=``, 10% whole-corpus ``/availability``, 5%
``/best_placement``.  Users and instances are drawn in proportion to
their toot counts; strategy is no-rep or s-rep, the failure any served
instance-removal schedule, and ``k`` uniform on 0–50.  ``held_on`` is
left out: its first hit per instance is an O(corpus) cache fill, which
would make the tail depend on order.

Open loops send on a fixed schedule and time each request from when it
was due, so a stall shows in every request queued behind it; closed
loops send each connection's next request when the previous answers.
Either way at most ``workers`` requests are in flight.
"""

from __future__ import annotations

import http.client
import itertools
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlencode

import numpy as np

from layers import query_key

MAX_K = 50
FAILURES = ("instances/by_toots", "instances/by_users", "instances/by_connections")
TIMEOUT_S = 5.0


@dataclass(frozen=True)
class Query:
    verb: str
    params: tuple[tuple[str, str], ...]

    @property
    def path(self) -> str:
        return f"/{self.verb}?{urlencode(self.params)}"

    @property
    def key(self) -> str:
        return query_key(self.verb, dict(self.params))


@dataclass
class Outcome:
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = -1
    body: bytes = b""


class QueryMix:
    """Draws queries from the stores' authors and instances.

    Each user and each instance is drawn in proportion to its toot
    count in the corpus, so the skew is the data's own: the prolific
    users and big instances whose timelines and row subsets are the
    largest are asked about as often as their share of the toots.
    """

    def __init__(self, corpus, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.users = np.asarray(corpus.authors).astype(str)
        toots = np.bincount(
            np.asarray(corpus.column("author_code"), dtype=np.int64),
            minlength=self.users.size,
        )
        self.user_p = toots / toots.sum()
        homes = corpus.home_toot_counts
        self.instances = np.array(sorted(homes), dtype=str)
        toots = np.array([homes[d] for d in self.instances], dtype=np.float64)
        self.instance_p = toots / toots.sum()

    def draw(self, n: int) -> list[Query]:
        rng = self.rng
        kinds = rng.random(n)
        users = self.users[rng.choice(self.users.size, size=n, p=self.user_p)].tolist()
        homes = self.instances[rng.choice(self.instances.size, size=n, p=self.instance_p)]
        failures = rng.integers(len(FAILURES), size=n).tolist()
        subscribed = (rng.random(n) < 0.5).tolist()
        ks = rng.integers(0, MAX_K + 1, size=n).tolist()
        replicas = rng.integers(1, 4, size=n).tolist()
        queries = []
        for i, u in enumerate(kinds.tolist()):
            failure = FAILURES[failures[i]]
            if u >= 0.95:
                queries.append(Query("best_placement", (
                    ("home", str(homes[i])),
                    ("n_replicas", str(replicas[i])),
                    ("failure", failure),
                )))
                continue
            common = (
                ("strategy", "s-rep" if subscribed[i] else "no-rep"),
                ("failure", failure),
                ("k", str(ks[i])),
            )
            if u < 0.5:
                query = Query("availability", (("user", users[i]),) + common)
            elif u < 0.7:
                query = Query("timeline", (("user", users[i]),) + common)
            elif u < 0.85:
                query = Query("availability", (("instance", str(homes[i])),) + common)
            else:
                query = Query("availability", common)
            queries.append(query)
        return queries


def get(host: str, port: int, path: str, keep_body: bool = True) -> tuple[int, bytes]:
    """One GET on a fresh connection (the server answers HTTP/1.0)."""
    connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        return response.status, body if keep_body else b""
    except (OSError, http.client.HTTPException):
        return -1, b""
    finally:
        connection.close()


def _drive(host, port, queries, outcomes, workers, keep) -> None:
    counter = itertools.count()

    def worker() -> None:
        while True:
            index = next(counter)
            if index >= len(queries):
                return
            outcome = outcomes[index]
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome.sent = time.perf_counter()
            outcome.status, outcome.body = get(host, port, queries[index].path, index in keep)
            outcome.done = time.perf_counter()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(host, port, queries, rate: float, workers: int) -> list[Outcome]:
    start = time.perf_counter() + 0.01
    outcomes = [Outcome(due=start + i / rate) for i in range(len(queries))]
    _drive(host, port, queries, outcomes, workers, keep=())
    return outcomes


def closed_loop(host, port, queries, workers: int, keep) -> tuple[list[Outcome], float]:
    outcomes = [Outcome(due=0.0) for _ in queries]
    started = time.perf_counter()
    _drive(host, port, queries, outcomes, workers, keep=set(keep))
    wall = time.perf_counter() - started
    for outcome in outcomes:
        outcome.due = outcome.sent
    return outcomes, wall


def latencies_ms(outcomes: list[Outcome]) -> list[float]:
    """Due-to-done latency; a failed request counts as the full timeout."""
    return [
        (o.done - o.due) * 1e3 if o.status == 200 else TIMEOUT_S * 1e3 for o in outcomes
    ]

"""The HTTP and stdin transports: same answers, proper error surfaces."""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from repro import obs
from repro.serve import AvailabilityService, build_http_server, serve_stdio
from repro.serve import http as serve_http_module
from repro.serve.http import READ_TIMEOUT_S
from repro.serve.stdio import _parse_line
from repro.errors import ReproError

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def http_base(service):
    """A live threaded server on an ephemeral port, torn down after."""
    server = build_http_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def damaged_http_base(damaged_service):
    """The same kind of server over the damaged corpus."""
    server = build_http_server(damaged_service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def damaged_service(serve_corpus_dir, serve_graph_dir, tmp_path_factory):
    """A service over a copy of the corpus whose first shard is cut in half."""
    corpus = tmp_path_factory.mktemp("damaged") / "corpus"
    shutil.copytree(serve_corpus_dir, corpus)
    shard = corpus / "shard-00000.npz"
    shard.write_bytes(shard.read_bytes()[: shard.stat().st_size // 2])
    return AvailabilityService(corpus, serve_graph_dir, mmap=True)


def http_get(base: str, path: str, **params) -> tuple[int, dict]:
    url = base + path
    if params:
        url += "?" + urllib.parse.urlencode(params)
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def run_stdio(service, *lines: str) -> list[dict]:
    out = io.StringIO()
    serve_stdio(service, in_stream=io.StringIO("\n".join(lines) + "\n"), out_stream=out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestHttp:
    def test_health(self, http_base):
        status, payload = http_get(http_base, "/health")
        assert (status, payload) == (200, {"status": "ok"})

    def test_availability_matches_service(self, service, http_base):
        user = str(service.corpus.authors.tolist()[0])
        status, payload = http_get(
            http_base, "/availability",
            user=user, strategy="s-rep", failure="instances/by_toots", k=10,
        )
        assert status == 200
        direct = service.availability(
            user=user, strategy="s-rep", failure="instances/by_toots", k=10
        )
        assert payload == json.loads(json.dumps(direct))

    def test_timeline_and_meta_and_best_placement(self, service, http_base):
        user = str(service.corpus.authors.tolist()[0])
        status, payload = http_get(http_base, "/timeline", user=user, k=5)
        assert status == 200
        assert payload == json.loads(json.dumps(service.timeline_availability(user, k=5)))

        status, payload = http_get(http_base, "/meta")
        assert status == 200
        assert payload["n_toots"] == service.corpus.n_toots

        home = str(service.corpus.domains.tolist()[0])
        status, payload = http_get(
            http_base, "/best_placement", home=home, n_replicas=2
        )
        assert status == 200
        assert len(payload["replicas"]) == 2

    def test_trailing_slash_is_tolerated(self, http_base):
        status, _ = http_get(http_base, "/meta/")
        assert status == 200

    def test_bad_query_is_400(self, http_base):
        status, payload = http_get(
            http_base, "/availability", strategy="no-rep", failure="bogus", k=1
        )
        assert status == 400
        assert "unknown failure model" in payload["error"]

    def test_missing_k_is_400(self, http_base):
        status, payload = http_get(http_base, "/availability", strategy="no-rep")
        assert status == 400
        assert "needs k=" in payload["error"]

    def test_non_integer_k_is_400(self, http_base):
        status, payload = http_get(http_base, "/availability", k="ten")
        assert status == 400
        assert "must be an integer" in payload["error"]

    def test_unknown_endpoint_is_404(self, http_base):
        status, payload = http_get(http_base, "/nope")
        assert status == 404
        assert "/availability" in payload["endpoints"]

    def test_unknown_parameter_is_400(self, http_base):
        status, payload = http_get(http_base, "/availability", k=1, surprise="yes")
        assert status == 400
        assert "unknown parameters" in payload["error"]


class TestConnections:
    """A thread per connection: no client holds up another, silent clients
    are dropped after the read timeout, and shutdown never waits."""

    TIMEOUT_S = 0.5
    CLIENTS = 8

    @pytest.fixture()
    def live(self, service, monkeypatch):
        """A fresh server whose read timeout is ``TIMEOUT_S``, and a list of
        connections to close after it."""
        monkeypatch.setattr(serve_http_module, "READ_TIMEOUT_S", self.TIMEOUT_S)
        server = build_http_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        held: list[socket.socket] = []
        yield server, held
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        for connection in held:
            connection.close()

    @staticmethod
    def base(server) -> str:
        return "http://%s:%d" % server.server_address[:2]

    @staticmethod
    def open_idle(server, held: list, count: int) -> None:
        """``count`` connections that send nothing."""
        address = server.server_address[:2]
        held.extend(socket.create_connection(address) for _ in range(count))
        time.sleep(0.1)  # let the server accept them

    @classmethod
    def health_seconds(cls, server) -> float:
        started = time.perf_counter()
        status, payload = http_get(cls.base(server), "/health")
        assert (status, payload) == (200, {"status": "ok"})
        return time.perf_counter() - started

    @staticmethod
    def raw_reply(server, request: bytes) -> bytes:
        with socket.create_connection(server.server_address[:2], timeout=10) as client:
            client.sendall(request)
            chunks = []
            while chunk := client.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    def test_a_burst_of_connects_is_accepted_at_once(self, live):
        server, held = live
        address = server.server_address[:2]
        slowest = 0.0
        for _ in range(4 * self.CLIENTS):
            started = time.perf_counter()
            held.append(socket.create_connection(address))
            slowest = max(slowest, time.perf_counter() - started)
        assert slowest < self.TIMEOUT_S

    def test_idle_clients_do_not_delay_health(self, live):
        server, held = live
        self.open_idle(server, held, self.CLIENTS)
        assert self.health_seconds(server) < self.TIMEOUT_S

    def test_trickling_clients_do_not_delay_health(self, live):
        # one byte every 0.3 s: no single read waits out the timeout
        server, held = live
        address = server.server_address[:2]
        held.extend(socket.create_connection(address) for _ in range(self.CLIENTS))
        stop = threading.Event()

        def trickle(connection: socket.socket) -> None:
            for byte in b"GET /health HTTP/1.0\r\n\r\n":
                if stop.wait(0.3):
                    return
                connection.send(bytes([byte]))

        threads = [threading.Thread(target=trickle, args=(c,)) for c in held]
        for thread in threads:
            thread.start()
        try:
            time.sleep(1.0)
            assert self.health_seconds(server) < self.TIMEOUT_S
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)

    def test_queries_waiting_on_a_build_do_not_delay_health(self, live, monkeypatch):
        server, _ = live
        answer = serve_http_module.handle_query
        entered = threading.Semaphore(0)
        release = threading.Event()

        def slow_build(service, verb, params):
            entered.release()
            release.wait(10)
            return answer(service, verb, params)

        monkeypatch.setattr(serve_http_module, "handle_query", slow_build)
        statuses: list[int] = []
        threads = [
            threading.Thread(target=lambda: statuses.append(http_get(self.base(server), "/meta")[0]))
            for _ in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in threads:
                assert entered.acquire(timeout=10)
            assert self.health_seconds(server) < self.TIMEOUT_S
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=10)
        assert statuses == [200] * self.CLIENTS

    def test_a_silent_client_is_dropped_after_the_timeout(self, live):
        server, _ = live
        with socket.create_connection(server.server_address[:2], timeout=10) as client:
            started = time.perf_counter()
            assert client.recv(1) == b""
            assert time.perf_counter() - started < self.TIMEOUT_S + 1.0

    def test_shutdown_does_not_wait_for_idle_clients(self, service):
        # the default timeout: closing must not wait for the idle reads
        server = build_http_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        idle: list[socket.socket] = []
        try:
            self.open_idle(server, idle, self.CLIENTS)
            started = time.perf_counter()
            server.shutdown()
            server.server_close()
            assert time.perf_counter() - started < 1.0
            thread.join(timeout=1.0)
            assert not thread.is_alive()
        finally:
            for connection in idle:
                connection.close()

    def test_concurrent_clients_get_the_serial_answers(self, service, live):
        server, _ = live
        base = self.base(server)
        users = [str(a) for a in service.corpus.authors.tolist()[:4]]
        homes = list(service.corpus.home_toot_counts)[:2]
        queries = [("/availability", {"user": u, "strategy": "s-rep", "k": "7"}) for u in users]
        queries += [("/timeline", {"user": u, "k": "3"}) for u in users]
        queries += [("/best_placement", {"home": h, "n_replicas": "2"}) for h in homes]
        queries += [("/availability", {"instance": h, "k": "2"}) for h in homes]
        serial = [http_get(base, path, **params) for path, params in queries]
        registry = obs.metrics()
        endpoints = sorted({path for path, _ in queries})

        def counted() -> float:
            return sum(
                registry.counter_value("repro_serve_requests_total", endpoint=e, status="200")
                for e in endpoints
            )

        before = counted()
        clients = self.CLIENTS
        results: list[list | None] = [None] * clients
        errors: list[BaseException] = []

        def client(slot: int) -> None:
            try:
                order = queries[slot:] + queries[:slot]
                answers = [http_get(base, path, **params) for path, params in order]
                results[slot] = answers[-slot:] + answers[:-slot] if slot else answers
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert all(answers == serial for answers in results)
        assert counted() - before == clients * len(queries)

    def test_oversized_requests_are_refused_and_the_server_keeps_serving(self, live):
        server, _ = live
        too_long = b"GET /" + b"a" * 70_000 + b" HTTP/1.0\r\n\r\n"
        headers = b"".join(b"X-Header-%d: x\r\n" % i for i in range(101))
        too_many = b"GET /health HTTP/1.0\r\n" + headers + b"\r\n"
        for _ in range(3):
            assert self.raw_reply(server, too_long).startswith(b"HTTP/1.0 414 ")
            assert self.raw_reply(server, too_many).startswith(b"HTTP/1.0 431 ")
        assert self.health_seconds(server) < self.TIMEOUT_S

    def test_serve_exits_zero_on_sigint_with_an_idle_client(self, serve_corpus_dir):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(serve_corpus_dir), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"http://([^:]+):(\d+)", line)
            assert match, line + process.stderr.read()
            with socket.create_connection((match.group(1), int(match.group(2)))):
                time.sleep(0.2)
                process.send_signal(signal.SIGINT)
                # a thread still waits on the idle client: exiting must not
                assert process.wait(timeout=READ_TIMEOUT_S - 1.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
            process.stderr.close()


class TestStdio:
    def test_answers_in_order_and_matching_http(self, service):
        answers = run_stdio(
            service,
            "availability strategy=no-rep failure=instances/by_toots k=10",
            "availability strategy=s-rep failure=instances/by_toots k=10",
            "meta",
        )
        assert len(answers) == 3
        assert answers[0] == json.loads(json.dumps(
            service.availability(strategy="no-rep", k=10)
        ))
        assert answers[1] == json.loads(json.dumps(
            service.availability(strategy="s-rep", k=10)
        ))
        assert answers[2]["n_toots"] == service.corpus.n_toots

    def test_blank_lines_and_comments_skipped(self, service):
        answers = run_stdio(service, "", "# a comment", "   ", "meta")
        assert len(answers) == 1

    def test_quit_stops_the_loop(self, service):
        answers = run_stdio(service, "meta", "quit", "meta")
        assert len(answers) == 1

    def test_errors_answer_inline_and_do_not_kill_the_loop(self, service):
        answers = run_stdio(
            service,
            "availability strategy=bogus k=1",
            "availability k=ten",
            "frobnicate x=1",
            "availability notakv",
            "meta",
        )
        assert len(answers) == 5
        assert "unknown placement strategy" in answers[0]["error"]
        assert "must be an integer" in answers[1]["error"]
        assert "unknown query verb" in answers[2]["error"]
        assert "malformed query token" in answers[3]["error"]
        assert "error" not in answers[4]

    def test_parse_line_grammar(self):
        assert _parse_line("availability user=@a@b.c k=3") == (
            "availability", {"user": "@a@b.c", "k": "3"}
        )
        with pytest.raises(ReproError, match="malformed query token"):
            _parse_line("availability =nope")


class TestDamagedStore:
    """A shard that cannot be read is a named error, not a crash or a 500."""

    QUERY = {"strategy": "no-rep", "failure": "instances/by_toots", "k": "3"}

    def test_stdin_answers_inline_and_keeps_serving(self, damaged_service):
        line = "availability " + " ".join(f"{k}={v}" for k, v in self.QUERY.items())
        answers = run_stdio(damaged_service, line, "meta")
        assert len(answers) == 2
        assert "shard-00000.npz" in answers[0]["error"]
        assert "error" not in answers[1]

    def test_http_answers_400(self, damaged_http_base):
        status, payload = http_get(damaged_http_base, "/availability", **self.QUERY)
        assert status == 400
        assert "shard-00000.npz" in payload["error"]

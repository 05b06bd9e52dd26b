"""The HTTP and stdin transports: same answers, proper error surfaces."""

from __future__ import annotations

import io
import json
import shutil
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.serve import AvailabilityService, build_http_server, serve_stdio
from repro.serve.stdio import _parse_line
from repro.errors import ReproError


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

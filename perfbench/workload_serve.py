"""``serve-medium``: ``repro-mastodon serve --warm`` in its own process.

The stores come from the ``collect --columnar --preset medium`` path.
The server is started through ``serve_launcher.py`` and driven over
HTTP by this process: an open loop at 150 qps, one at 300 qps (each
with at most ``nproc`` requests in flight), then a closed loop over a
fixed query set on one connection.
The HTTP transport and the service's row-subset kernels do the work;
the batch loss fold runs only during ``--warm``.  The preset is medium
because at large the timeline queries of the most prolific users reach a
~100 ms p99 even in-process, which makes the tail unsteady.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import batch
import layers
import loadgen
from harness import (
    Ledger, WorkDir, collect_columnar, e2e_metrics, emit, median, note, peak_rss_mib,
    percentile, per_layer_metrics, provenance,
)
from tracing import Span, Tracer, install, union_seconds

PRESET = "medium"
DATASET_SEED = 42  # fixed dataset, see workload_pipeline.DATASET_SEED
HOST = "127.0.0.1"
RATES = (150, 300)
#: Share of ``--seconds`` each open-loop rate runs for.
OPEN_SHARE = 0.1
#: The fixed closed-loop query set; ``answer_s`` is the median wall time
#: of ``REPLAYS`` replays of it (the service caches no answers), three so
#: that one replay slowed by the host does not move the median.  The set
#: is drawn from the seed, so it is large enough that the few timelines
#: of the most prolific users it holds weigh little in it.
CLOSED_QUERIES = 2000
REPLAYS = 3
#: One connection, so the closed loop measures the cost of serving each
#: query: with ``nproc`` connections on a 2-core VM it measured how much
#: CPU the host lent (27% slower with a busy loop holding one core, while
#: one connection did not slow).
CLOSED_CONNECTIONS = 1
#: Closed-loop answers compared with in-process ``handle_query``.
CHECKED_ANSWERS = 200
SPAWNS = 3
READY_TIMEOUT_S = 60.0
_SERVING = re.compile(r"serving availability queries on http://[^:]+:(\d+)")
LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"


class Server:
    """One ``serve --warm`` process, from spawn to its first healthy answer."""

    def __init__(self, corpus: Path, graph: Path, log: Path, spans: Path | None) -> None:
        command = [sys.executable, str(LAUNCHER)]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["--", str(corpus), "--graph", str(graph), "--port", "0", "--warm"]
        started = time.perf_counter()
        self._log = open(log, "ab")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        try:
            self.port = self._await_port()
            self._await_health(started + READY_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _await_port(self) -> int:
        for line in self.process.stdout:
            match = _SERVING.search(line)
            if match:
                return int(match.group(1))
        raise RuntimeError(f"serve exited with {self.process.wait()} before listening")

    def _await_health(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            status, _ = loadgen.get(HOST, self.port, "/health")
            if status == 200:
                return
            time.sleep(0.005)
        raise TimeoutError("serve did not answer /health in time")

    def get_json(self, path: str) -> dict:
        status, body = loadgen.get(HOST, self.port, path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def stop(self) -> bool:
        """SIGINT, so ``serve_http`` returns and the launcher writes its spans.

        True when the server exited 0 on it; one that does not exit in
        time is killed.
        """
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
                self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # also reached when the run-level timeout interrupts the wait
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
            self._log.close()
        return self.process.returncode == 0


def _serve_pass(
    directory, plan, open_seconds, work: WorkDir, traced: bool, spawns: int, replays: int
) -> dict:
    """Spawn the server ``spawns`` times, then drive the last one."""
    workers = os.cpu_count() or 1
    spans = work.path / f"server-spans-{time.perf_counter_ns()}.json" if traced else None
    ready: list[float] = []
    clean_stops: list[bool] = []
    server = None
    try:
        for attempt in range(spawns):
            server = Server(directory / "corpus", directory / "graph", work.path / "serve.log",
                            spans if attempt == spawns - 1 else None)
            ready.append(server.ready_s)
            if attempt < spawns - 1:
                clean_stops.append(server.stop())
        warm_rss = peak_rss_mib(server.process.pid)
        before = server.get_json("/meta")["build_counters"]
        opened = {
            rate: loadgen.open_loop(HOST, server.port, plan[rate][: int(rate * open_seconds)],
                                    rate, workers)
            for rate in RATES
        }
        replayed = [
            loadgen.closed_loop(
                HOST, server.port, plan["closed"], CLOSED_CONNECTIONS, plan["keep"]
            )
            for _ in range(replays)
        ]
        note(
            f"serve pass: ready {' '.join(f'{r:.3f}' for r in ready)} s; open loops "
            + " ".join(f"{r} qps {opened[r][-1].done - opened[r][0].due:.3f} s" for r in RATES)
            + f"; closed {' '.join(f'{wall:.3f}' for _, wall in replayed)} s"
        )
        after = server.get_json("/meta")["build_counters"]
        served = _requests_by_status(loadgen.get(HOST, server.port, "/metrics")[1].decode())
        peak = peak_rss_mib(server.process.pid)
    finally:
        if server is not None:
            clean_stops.append(server.stop())
    server_spans = json.loads(spans.read_text()) if traced else None
    plan_keys = [(o, q.key) for closed, _ in replayed for o, q in zip(closed, plan["closed"])]
    for rate in RATES:
        plan_keys += [(o, q.key) for o, q in zip(opened[rate], plan[rate])]
    return {
        "ready": ready, "warm_rss": warm_rss, "peak": peak, "before": before, "after": after,
        "opened": opened, "closed": [o for closed, _ in replayed for o in closed],
        "last_closed": replayed[-1][0], "walls": [wall for _, wall in replayed], "served": served,
        "server_spans": server_spans, "plan_keys": plan_keys, "clean_stops": clean_stops,
    }


def _requests_by_status(prometheus: str) -> dict[str, int]:
    """Query answers by HTTP status, from the server's own /metrics."""
    counts: dict[str, int] = {}
    pattern = re.compile(
        r'^repro_serve_requests_total\{endpoint="(/availability|/timeline|/best_placement)",'
        r'status="(\d+)"\} (\d+)', re.MULTILINE,
    )
    for _, status, value in pattern.findall(prometheus):
        counts[status] = counts.get(status, 0) + int(float(value))
    return counts


def run(seed: int, seconds: float, trace: bool, ledger: Ledger) -> dict:
    from repro.fediverse import build_columnar_scenario
    from repro.serve import AvailabilityService

    work = WorkDir("serve")
    try:
        # the served stores, built once; collect_s times this build
        directory = work.fresh("stores")
        scenario = build_columnar_scenario(PRESET, seed=DATASET_SEED)
        collect_s, collect_rss, corpus, graph = collect_columnar(
            scenario, directory, batch.no_span
        )
        if trace:
            # a fresh scenario: a collected one has its derived indexes
            # cached, which would make the traced collect cheaper
            scenario = build_columnar_scenario(PRESET, seed=DATASET_SEED)
            tracer = Tracer()
            restore = install(tracer, layers.PROGRAM_PATCHES)
            try:
                traced_collect_s = collect_columnar(scenario, work.fresh("stores"), tracer.span)[0]
            finally:
                restore()
        del scenario
        mix = loadgen.QueryMix(corpus, seed)
        plan = {rate: mix.draw(int(rate * seconds * OPEN_SHARE)) for rate in RATES}
        plan["closed"] = mix.draw(CLOSED_QUERIES)
        plan["keep"] = sorted(
            int(i) for i in mix.rng.choice(CLOSED_QUERIES, CHECKED_ANSWERS, replace=False)
        )

        if not trace:
            result = _serve_pass(
                directory, plan, seconds * OPEN_SHARE, work, False, SPAWNS, REPLAYS
            )
            metrics = e2e_metrics({
                "setup_s": median(result["ready"]),
                "collect_s": collect_s,
                "answer_s": median(result["walls"]),
                "peak_rss_mib": result["peak"],
            })
            passes = [result]
        else:
            base = _serve_pass(directory, plan, seconds * OPEN_SHARE / 2, work, False, 2, 2)
            result = _serve_pass(directory, plan, seconds * OPEN_SHARE / 2, work, True, 2, 2)
            metrics = _per_layer(tracer, base, result, collect_s, traced_collect_s, {
                "rss.collect_mib": collect_rss,
                "corpus.observations": corpus.n_observations,
                "corpus.toots": corpus.n_toots,
                "corpus.dedup_ratio": corpus.n_toots / corpus.n_observations,
            })
            passes = [base, result]

        for served in passes:
            _account(ledger, served)
        service = AvailabilityService(directory / "corpus", directory / "graph")
        _check(ledger, passes, plan, service)
        emit({"provenance": provenance(
            workload="serve-medium", seed=seed, preset=PRESET, dataset_seed=DATASET_SEED,
            corpus=corpus, graph=graph,
        )})
        return metrics
    finally:
        work.close()


def _account(ledger: Ledger, result: dict) -> None:
    outcomes = [*result["closed"], *(o for rate in RATES for o in result["opened"][rate])]
    ledger.ops(len(outcomes), sum(1 for o in outcomes if o.status != 200))


def _check(ledger: Ledger, passes: list[dict], plan: dict, service) -> None:
    from repro.serve import handle_query

    stops = [clean for result in passes for clean in result["clean_stops"]]
    ledger.check("every server exited 0 on SIGINT", all(stops), f"{stops}")
    ledger.check(
        "no one-time build landed in the request path",
        all(result["before"] == result["after"] for result in passes),
        " ".join(f"{result['before']} -> {result['after']}" for result in passes),
    )
    mismatched = []
    for index in plan["keep"]:
        query = plan["closed"][index]
        outcome = passes[-1]["last_closed"][index]
        expected = handle_query(service, query.verb, dict(query.params))
        if outcome.status != 200 or json.loads(outcome.body) != json.loads(
            json.dumps(expected, sort_keys=True)
        ):
            mismatched.append(query.path)
    ledger.check(
        f"{len(plan['keep'])} sampled HTTP answers equal in-process handle_query",
        not mismatched,
        ", ".join(mismatched[:3]),
    )


def _per_layer(client: Tracer, base: dict, result: dict, collect_s: float,
               traced_collect_s: float, sizes: dict[str, float]) -> dict:
    payload = result["server_spans"]
    server = Tracer.from_json(payload["spans"], payload["main_thread"])
    values = layers.span_metrics([client, server], 1)
    values.update(sizes)
    for kind in layers.HANDLE_VERBS:
        handled = [s.seconds * 1e3 for s in server.spans if s.name == f"serve.handle.{kind}"]
        if handled:
            values[f"serve.handle_ms.p50.{kind}"] = percentile(handled, 50)
            values[f"serve.handle_ms.p99.{kind}"] = percentile(handled, 99)
    values["serve.transport_ms.p50"], values["serve.transport_ms.p99"] = _transport(
        server, result
    )
    for name in ("strategies", "loss_tables", "row_indexes"):
        values[f"serve.builds.{name}"] = result["after"][f"{name}_built"]
    served = result["served"]
    values["serve.requests"] = sum(served.values())
    values["serve.errors"] = sum(n for status, n in served.items() if status != "200")

    opened = result["opened"]
    every = [*result["closed"], *(o for rate in RATES for o in opened[rate])]
    values["client.sent"] = len(every)
    values["client.failed"] = sum(1 for o in every if o.status != 200)
    values["client.lag_ms.max"] = max(
        (o.sent - o.due) * 1e3 for rate in RATES for o in opened[rate]
    )
    for rate in RATES:
        latencies = loadgen.latencies_ms(opened[rate])
        values[f"client.query_p50_ms.r{rate}"] = percentile(latencies, 50)
        values[f"client.query_p99_ms.r{rate}"] = percentile(latencies, 99)
    values["client.closed_qps"] = len(result["last_closed"]) / median(result["walls"])
    values["rss.warm_mib"] = result["warm_rss"]

    traced = {
        "setup_s": median(result["ready"]), "collect_s": traced_collect_s,
        "answer_s": median(result["walls"]), "peak_rss_mib": result["peak"],
    }
    untraced = {
        "setup_s": median(base["ready"]), "collect_s": collect_s,
        "answer_s": median(base["walls"]), "peak_rss_mib": base["peak"],
    }
    for name in traced:
        values[f"obs.overhead_pct.{name}"] = 100.0 * (traced[name] / untraced[name] - 1.0)

    # the server's set-up window: launcher start to the end of --warm,
    # covered by its top-level spans (what is left is interpreter start-up)
    warm_end = max(s.end for s in server.spans if s.name == "serve.warm")
    window = (payload["started"], warm_end)
    top = [(max(s.start, window[0]), min(s.end, window[1]))
           for s in server.spans if s.parent is None and s.thread == server.main_thread
           and s.start < window[1]]
    client_uncovered, client_wall = client.uncovered()
    server_wall = window[1] - window[0]
    server_uncovered = server_wall - union_seconds(top)
    values["obs.uncovered_pct"] = 100.0 * (client_uncovered + server_uncovered) / (
        client_wall + server_wall
    )
    print(layers.report("client (collect)", client), flush=True)
    print(layers.report("server (traced pass)", server), flush=True)
    return per_layer_metrics(values)


def _transport(server: Tracer, result: dict) -> tuple[float, float]:
    """Client time minus the server's handle time for the same request."""
    handles: dict[str, list[Span]] = {}
    for span in sorted(server.spans, key=lambda s: s.start):
        if span.name.startswith("serve.handle.") and span.attrs:
            handles.setdefault(span.attrs["key"], []).append(span)
    transport = []
    for outcome, key in result["plan_keys"]:
        for index, span in enumerate(handles.get(key, ())):
            if outcome.sent <= span.start and span.end <= outcome.done:
                transport.append((outcome.done - outcome.sent - span.seconds) * 1e3)
                del handles[key][index]
                break
    return percentile(transport, 50), percentile(transport, 99)

"""The layer split: which public calls are timed, and the metrics they give.

Every binding below is wrapped from outside by :func:`tracing.install`;
``src/`` carries no benchmark timers.  The comment above
:func:`span_metrics` names the end-to-end metric and workload each
group of per-layer metrics should move.
"""

from __future__ import annotations

from typing import Any

from tracing import Patch, Tracer

HANDLE_VERBS = ("user", "instance", "corpus", "timeline", "best_placement")
EXPERIMENT_GROUPS = ("population", "availability", "resilience", "replication", "failures")
PLACEMENT_KINDS = ("none", "subscription", "random")


def _placement_name(cls, store, kind: str = "none", **_: Any) -> str:
    return f"engine.placement.{kind}"


def _replicas(result, *args, **kwargs) -> dict[str, Any]:
    return {"replicas": int(result.replica_indices.size)}


def _streamed_columns(result, sharded, removal_matrix, *args, **kwargs) -> dict[str, Any]:
    return {"toot_columns": int(sharded.n_toots) * int(removal_matrix.shape[1])}


def _batch_columns(result, matrix, removal_matrix, *args, **kwargs) -> dict[str, Any]:
    return {"toot_columns": int(matrix.shape[0]) * int(removal_matrix.shape[1])}


def handle_class(verb: str, params: dict[str, str]) -> str:
    """The verb class a query is reported under (``serve.handle_ms.*``)."""
    if verb != "availability":
        return verb
    for selector in ("user", "instance", "held_on"):
        if selector in params:
            return selector
    return "corpus"


def query_key(verb: str, params: dict[str, str]) -> str:
    """Matches a server-side handle span to the client request that caused it."""
    return verb + "?" + "&".join(f"{k}={v}" for k, v in sorted(params.items()))


def _handle_name(service, verb, params) -> str:
    return f"serve.handle.{handle_class(verb, params)}"


def _handle_key(result, service, verb, params) -> dict[str, Any]:
    return {"key": query_key(verb, params)}


#: Bindings timed in the process that runs the batch workloads (and in
#: the serve workload's client, which builds the stores).
PROGRAM_PATCHES = (
    Patch("repro.fediverse.columnar", "ColumnarScenario.write_corpus", "fediverse.write_corpus"),
    Patch("repro.fediverse.columnar", "ColumnarScenario.write_graph", "fediverse.write_graph"),
    Patch("repro.crawler.monitor", "InstanceMonitor.run", "crawler.monitor"),
    Patch("repro.crawler.toot_crawler", "TootCrawler.crawl", "crawler.toots"),
    Patch("repro.crawler.graph_crawler", "FollowerGraphCrawler.crawl", "crawler.graph"),
    Patch("repro.crawler.http", "SimulatedTransport.get", "crawler.transport"),
    Patch("repro.corpus.writer", "CorpusWriter.add_page", "corpus.spool"),
    Patch("repro.corpus.writer", "CorpusWriter.add_columns", "corpus.spool"),
    Patch("repro.corpus.writer", "CorpusWriter.end_instance", "corpus.spool"),
    Patch("repro.corpus.graph", "GraphWriter.add_edges", "corpus.graph_spool"),
    Patch("repro.corpus.graph", "GraphWriter.end_instance", "corpus.graph_spool"),
    Patch("repro.corpus.writer", "CorpusWriter.finalise", "corpus.merge"),
    Patch("repro.corpus.graph", "GraphWriter.finalise", "corpus.graph_finalise"),
    Patch("repro.corpus.store", "CorpusStore.__init__", "corpus.open"),
    Patch("repro.corpus.graph", "GraphStore.__init__", "corpus.open"),
    Patch("repro.corpus.store", "CorpusStore.shard_column", "corpus.column_read"),
    Patch("repro.corpus.store", "CorpusStore.iter_records", "corpus.record_materialise"),
    Patch("repro.datasets.instances", "InstancesDataset.build", "datasets.instances"),
    Patch("repro.datasets.toots", "TootsDataset.from_corpus", "datasets.toots"),
    Patch("repro.datasets.graphs", "GraphDataset.from_edges", "datasets.graph_rebuild"),
    Patch("repro.datasets.twitter", "TwitterBaselines.generate", "datasets.twitter"),
    Patch("repro.engine.placement", "PlacementArrays.from_corpus", _placement_name, _replicas),
    Patch("repro.engine.sweep", "streaming_losses", "engine.fold", _streamed_columns),
    Patch("repro.engine.sweep", "losses_per_step_batch", "engine.fold", _batch_columns),
    Patch("repro.engine.sharding", "ShardedIncidence.shard", "engine.shard_assemble"),
    Patch("repro.engine.failures", "TemporalFailureModel.down_matrix", "engine.failure_sampling"),
    Patch("repro.engine.resilience", "user_removal_sweep_matrix", "engine.graph_sweep"),
    Patch("repro.engine.resilience", "ranked_removal_sweep_matrix", "engine.graph_sweep"),
    Patch("repro.engine.resilience", "as_removal_sweep_matrix", "engine.graph_sweep"),
    Patch("repro.engine.placement", "PlacementArrays.rows_incidence", "engine.rows_incidence"),
    Patch("repro.serve.service", "losses_per_step_batch", "engine.row_kernel"),
)

#: Extra bindings timed inside the ``serve`` process.
SERVER_PATCHES = PROGRAM_PATCHES + (
    Patch("repro.serve.service", "AvailabilityService.__init__", "serve.open"),
    Patch("repro.serve.service", "AvailabilityService.warm", "serve.warm"),
    Patch("repro.serve.service", "streaming_losses", "engine.fold", _streamed_columns),
    Patch("repro.serve.http", "handle_query", _handle_name, _handle_key),
)

# Which e2e metric each per-layer group should move (names, units and
# direction are in BENCHMARK.json's per_layer list):
#
# * fediverse.*             setup_s on pipeline-small and scale-medium
# * crawler.*               collect_s on pipeline-small; request errors
#                           are the scenario's offline instances
# * corpus.spool/merge/graph_*, corpus.observations/toots/dedup_ratio
#                           collect_s on every workload (spool and merge
#                           dominate scale-medium)
# * corpus.open/column_read*/record_materialise
#                           answer_s on scale-medium and pipeline-small
#                           (fig14 walks records)
# * datasets.*              collect_s and answer_s on pipeline-small
# * experiments.*           answer_s on pipeline-small
# * engine.placement*       answer_s on scale-medium, setup_s on serve-medium
# * engine.fold/shard_*     answer_s on scale-medium; on pipeline-small via churn
# * engine.failure_sampling_s, engine.graph_sweep_s
#                           answer_s on pipeline-small
# * engine.rows_incidence_s, engine.row_kernel_s
#                           answer_s on serve-medium (the client.query_p99_ms tail)
# * serve.open/warm/builds.*
#                           setup_s on serve-medium; a build counter that
#                           grows under load means a build landed in the
#                           request path
# * serve.handle_ms.*, serve.transport_ms.*, serve.requests/errors
#                           answer_s and the client latencies on serve-medium
# * client.*                the load generator; a growing lag means the
#                           rate was never offered
# * rss.*                   peak_rss_mib, phase by phase
# * obs.*                   validity of the split: traced minus untraced,
#                           and phase time that falls in no layer span


def span_metrics(tracers: list[Tracer], passes: int) -> dict[str, float]:
    """Per-layer metrics derived from spans, per measured pass."""

    def total(name: str) -> float:
        return sum(t.total(name) for t in tracers) / passes

    def count(name: str) -> float:
        return sum(t.count(name) for t in tracers) / passes

    def attr(name: str, key: str) -> float:
        return sum(t.attr_sum(name, key) for t in tracers) / passes

    errors = sum(
        1
        for t in tracers
        for s in t.spans
        if s.name == "crawler.transport" and s.attrs and "raised" in s.attrs
    )
    values = {
        "fediverse.build_s": total("fediverse.build"),
        "fediverse.columnar_build_s": total("fediverse.columnar_build"),
        "crawler.monitor_s": total("crawler.monitor"),
        "crawler.toots_s": total("crawler.toots"),
        "crawler.graph_s": total("crawler.graph"),
        "crawler.requests": count("crawler.transport"),
        "crawler.request_errors": errors / passes,
        "crawler.transport_busy_s": total("crawler.transport"),
        "corpus.spool_s": total("corpus.spool"),
        "corpus.graph_spool_s": total("corpus.graph_spool"),
        "corpus.merge_s": total("corpus.merge"),
        "corpus.graph_finalise_s": total("corpus.graph_finalise"),
        "corpus.open_s": total("corpus.open"),
        "corpus.column_reads": count("corpus.column_read"),
        "corpus.column_read_s": total("corpus.column_read"),
        "corpus.record_materialise_s": attr("corpus.record_materialise", "busy_s"),
        "datasets.graph_rebuild_s": total("datasets.graph_rebuild"),
        "datasets.twitter_s": total("datasets.twitter"),
        "engine.placements": sum(count(f"engine.placement.{k}") for k in PLACEMENT_KINDS),
        "engine.replicas_placed": sum(
            attr(f"engine.placement.{k}", "replicas") for k in PLACEMENT_KINDS
        ),
        "engine.fold_s": total("engine.fold"),
        "engine.shard_assemble_s": total("engine.shard_assemble"),
        "engine.shards_folded": count("engine.shard_assemble"),
        "engine.fold_toot_columns": attr("engine.fold", "toot_columns"),
        "engine.failure_sampling_s": total("engine.failure_sampling"),
        "engine.graph_sweep_s": total("engine.graph_sweep"),
        "engine.rows_incidence_s": total("engine.rows_incidence"),
        "engine.row_kernel_s": total("engine.row_kernel"),
        "serve.open_s": total("serve.open"),
        "serve.warm_s": total("serve.warm"),
    }
    for group in EXPERIMENT_GROUPS:
        values[f"experiments.{group}_s"] = total(f"experiments.{group}")
    for kind in PLACEMENT_KINDS:
        values[f"engine.placement_s.{kind}"] = total(f"engine.placement.{kind}")
    values["engine.placement_s"] = sum(
        values[f"engine.placement_s.{kind}"] for kind in PLACEMENT_KINDS
    )
    return values


def uncovered_pct(tracer: Tracer) -> float:
    """Share of phase wall time that falls in no layer span."""
    uncovered, wall = tracer.uncovered()
    return 100.0 * uncovered / wall if wall > 0 else 0.0


def report(title: str, tracer: Tracer) -> str:
    """Self time and count per span name, heaviest first."""
    rows = sorted(tracer.self_times().items(), key=lambda item: -item[1][2])
    lines = [f"== {title}: spans (count, total s, self s)"]
    for name, (n, total, own) in rows:
        lines.append(f"  {name:<32} {n:>8} {total:>10.4f} {own:>10.4f}")
    return "\n".join(lines)

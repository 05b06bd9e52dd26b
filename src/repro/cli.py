"""Command-line interface for the reproduction toolkit.

Seven subcommands cover the common workflows::

    repro-mastodon scenario     --preset small --seed 7   # population summary
    repro-mastodon report       --preset tiny  --seed 7   # headline analyses
    repro-mastodon export OUT/  --preset tiny  --seed 7   # anonymised JSONL dump
    repro-mastodon collect --corpus out/ --preset large   # stream crawl to columns
    repro-mastodon experiments                            # list every table/figure
    repro-mastodon run fig15 fig16 --preset small --seed 42 --json out/
    repro-mastodon run --all --preset tiny --seed 7       # the whole evaluation
    repro-mastodon run fig15 fig16 --preset large --corpus corpus/ --shard-size 100000
    repro-mastodon serve corpus/ --graph graph/ --warm    # availability queries

The CLI is a thin wrapper over the public API: ``run`` dispatches
through :func:`repro.experiments.run_experiments` (one shared, memoised
pipeline for any subset of the paper's experiments), ``report`` is a
view over the same runners' headline scalars, and anything printed here
can also be produced programmatically.  Every crawl streams into the
columnar corpus store (:mod:`repro.corpus`) and the follower crawl into
on-disk edge shards, in temporary directories unless ``--corpus DIR`` /
``--graph DIR`` name them; ``run`` reuses a store that ``collect``
wrote.  ``collect --columnar`` generates the scenario as numpy columns
and streams them straight to disk — the only route to the 10M-toot
``xlarge`` preset.

Resilience: ``--retries`` routes every crawl request through retrying
transports with per-instance circuit breakers, ``--fault-rate`` injects
seeded chaos to exercise them, and ``collect --resume`` reopens an
interrupted crawl from its journal — sealed instances are never
re-crawled.

Observability (``collect``/``run``/``serve``): ``--trace PATH`` records
spans across the whole command (``--trace-format chrome`` writes a
``chrome://tracing`` file), ``--metrics [PATH]`` dumps Prometheus text
on exit, and ``-v``/``-q`` tune the ``repro.*`` loggers.  The HTTP
server additionally answers ``GET /metrics`` whether or not the flags
were passed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from repro import build_scenario, collect_datasets, obs
from repro.crawler import FollowerGraphCrawler, InstanceMonitor, SimulatedTransport, TootCrawler
from repro.datasets import Anonymiser, save_edges, save_snapshots, save_toot_records
from repro.errors import AnalysisError, ConfigurationError, DatasetError
from repro.experiments import ExperimentContext, has_runner, run_experiments
from repro.fediverse import build_columnar_scenario, preset_names
from repro.reporting import EXPERIMENTS, format_percentage, format_table

#: The experiments whose scalars make up the ``report`` headline table.
REPORT_EXPERIMENTS = ("headline", "fig5", "fig7", "fig14")


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        choices=preset_names(),
        default="tiny",
        help=(
            "scenario size preset (default: tiny; 'large' targets 1M+ toots, "
            "'xlarge' 10M+ and needs --columnar)"
        ),
    )
    parser.add_argument("--seed", type=int, default=7, help="scenario random seed (default: 7)")
    parser.add_argument(
        "--monitor-interval",
        type=int,
        default=24 * 60,
        help="monitor probe interval in minutes (default: daily)",
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "route every crawl request through the resilient transport with "
            "up to N attempts (exponential backoff + jitter, per-instance "
            "circuit breakers); default: no retries"
        ),
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        metavar="P",
        help=(
            "inject seeded transport faults (timeouts, resets, 5xx, 429s, "
            "truncated pages, instance deaths) with total probability P per "
            "request — a chaos harness for exercising --retries"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="fault-injection seed (default: 0; faults are deterministic per seed)",
    )
    parser.add_argument(
        "--retry-delay",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "base backoff delay between retry attempts (default: 0.05; the "
            "cap scales with it — tiny values keep chaos runs fast in CI)"
        ),
    )


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        dest="trace_path",
        help=(
            "record tracing spans for the whole command to PATH (crawl, "
            "corpus, engine, experiment phases, serve); a closing summary "
            "reports how much wall-clock the root spans cover"
        ),
    )
    parser.add_argument(
        "--trace-format",
        choices=obs.TRACE_FORMATS,
        default="jsonl",
        help=(
            "trace file format: 'jsonl' streams one span per line as spans "
            "close (crash-safe), 'chrome' writes a chrome://tracing / "
            "ui.perfetto.dev trace_event file on exit (default: jsonl)"
        ),
    )
    parser.add_argument(
        "--metrics",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        dest="metrics_path",
        help=(
            "enable counters/histograms on the instrumented hot paths and "
            "dump them in Prometheus text format on exit — to stdout, or to "
            "PATH if given"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log more from the repro.* loggers (-v: INFO, -vv: DEBUG)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="log less (-q: errors only, -qq: silence)",
    )


def _retry_policy(args: argparse.Namespace):
    """The retry configuration described by the resilience flags.

    Returns ``None`` (retries disabled), an int ``max_attempts`` for the
    default backoff schedule, or a full
    :class:`~repro.crawler.resilient.RetryPolicy` when ``--retry-delay``
    reshapes the schedule (the delay cap scales with the base so a tiny
    base cannot still escalate to multi-second sleeps).
    """
    if args.retries is None and args.retry_delay is None:
        return None
    if args.retry_delay is None:
        return args.retries
    from repro import RetryPolicy

    attempts = args.retries if args.retries is not None else 4
    return RetryPolicy(
        max_attempts=attempts,
        base_delay=args.retry_delay,
        max_delay=min(2.0, args.retry_delay * 64),
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-mastodon",
        description="Reproduction toolkit for 'Challenges in the Decentralised Web' (IMC 2019)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    scenario = subparsers.add_parser("scenario", help="generate a scenario and print its population")
    _add_scenario_arguments(scenario)
    scenario.set_defaults(func=_command_scenario)

    report = subparsers.add_parser("report", help="run the measurement pipeline and print headline analyses")
    _add_scenario_arguments(report)
    report.set_defaults(func=_command_report)

    export = subparsers.add_parser("export", help="export anonymised datasets as JSON lines")
    export.add_argument("output_dir", help="directory to write the JSONL files into")
    _add_scenario_arguments(export)
    export.add_argument("--salt", default=None, help="anonymisation salt (random if omitted)")
    export.set_defaults(func=_command_export)

    collect = subparsers.add_parser(
        "collect",
        help="run the measurement pipeline, streaming the crawl to a columnar corpus",
        description=(
            "Collect the paper's datasets and stream the toot crawl into the "
            "columnar corpus store: integer-coded .npz shards plus a JSON "
            "manifest that 'run --corpus' and PlacementArrays.from_corpus "
            "build from directly."
        ),
    )
    collect.add_argument(
        "--corpus",
        metavar="DIR",
        required=True,
        dest="corpus_dir",
        help="directory to write the columnar corpus into",
    )
    collect.add_argument(
        "--shard-toots",
        type=int,
        default=None,
        metavar="N",
        help="toots per corpus shard (default: the corpus writer's 250k)",
    )
    collect.add_argument(
        "--graph",
        metavar="DIR",
        default=None,
        dest="graph_dir",
        help=(
            "also stream the follower crawl into an on-disk edge-shard store "
            "at DIR (integer-coded .npz shards + manifest)"
        ),
    )
    collect.add_argument(
        "--columnar",
        action="store_true",
        help=(
            "generate the scenario as numpy columns and stream them straight "
            "into the corpus (and --graph) without materialising the object "
            "network — required for the 'xlarge' preset"
        ),
    )
    collect.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted collect: sealed instances recorded in the "
            "crawl journal are trusted without re-crawling, partial files are "
            "quarantined; a directory whose manifest is already complete is "
            "reused as-is"
        ),
    )
    collect.add_argument(
        "--politeness",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="minimum delay between requests to the same instance (default: 0)",
    )
    _add_scenario_arguments(collect)
    _add_resilience_arguments(collect)
    _add_observability_arguments(collect)
    collect.set_defaults(func=_command_collect)

    experiments = subparsers.add_parser(
        "experiments", help="list every reproducible table and figure"
    )
    experiments.set_defaults(func=_command_experiments)

    run = subparsers.add_parser(
        "run",
        help="run experiments from the registry over one shared pipeline",
        description=(
            "Run any subset of the paper's experiments (e.g. 'run fig15 fig16'). "
            "The scenario, measurement pipeline and placements are built once and "
            "shared across every selected experiment."
        ),
    )
    run.add_argument(
        "experiment_ids",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids to run (fig1..fig16, table1, table2, headline)",
    )
    run.add_argument(
        "--all", action="store_true", dest="run_all", help="run every registered experiment"
    )
    _add_scenario_arguments(run)
    run.add_argument(
        "--json",
        metavar="DIR",
        dest="json_dir",
        default=None,
        help="also write one <experiment>.json result file per experiment into DIR",
    )
    run.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="TOOTS",
        help=(
            "evaluate availability sweeps in toot-range shards of this size "
            "(0 disables sharding; default: automatic past the engine's "
            "corpus-size threshold)"
        ),
    )
    run.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        dest="corpus_dir",
        help=(
            "the columnar corpus directory: reused if it holds a corpus (from "
            "'collect'), else the toot crawl is written there (default: a "
            "temporary directory)"
        ),
    )
    run.add_argument(
        "--graph",
        default=None,
        metavar="DIR",
        dest="graph_dir",
        help=(
            "the follower-graph store directory: reused if it holds a store, "
            "else the follower crawl is written there (default: a temporary "
            "directory)"
        ),
    )
    run.add_argument(
        "--churn-ticks",
        type=int,
        default=None,
        metavar="N",
        help=(
            "probe ticks of the temporal-churn sweep across the observation "
            "window (the 'churn' experiment; default: 48)"
        ),
    )
    run.add_argument(
        "--churn-seeds",
        type=int,
        nargs="+",
        default=None,
        metavar="SEED",
        help="bootstrap seeds of the sampled churn processes (default: 0 1 2)",
    )
    _add_resilience_arguments(run)
    _add_observability_arguments(run)
    run.set_defaults(func=_command_run)

    serve = subparsers.add_parser(
        "serve",
        help="answer availability queries from a warm, mmap-backed service",
        description=(
            "Load a columnar corpus (and optionally its graph store) read-only "
            "via memory-mapped shards, build placements and loss tables once, "
            "then answer per-user/per-instance availability queries at "
            "interactive latency over HTTP (JSON) or stdin/stdout — "
            "bit-identical to the batch sweeps."
        ),
    )
    serve.add_argument(
        "corpus_dir",
        metavar="CORPUS_DIR",
        help="columnar corpus directory (from 'collect --corpus')",
    )
    serve.add_argument(
        "--graph",
        metavar="DIR",
        default=None,
        dest="graph_dir",
        help=(
            "follower-graph store directory (from 'collect --graph'); enables "
            "the s-rep strategy, timeline queries and the by_users/"
            "by_connections rankings"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8015, help="bind port (default: 8015)")
    serve.add_argument(
        "--stdin",
        action="store_true",
        help="answer line-oriented queries on stdin/stdout instead of HTTP",
    )
    serve.add_argument(
        "--no-mmap",
        action="store_true",
        help="load shards eagerly instead of memory-mapping them",
    )
    serve.add_argument(
        "--warm",
        nargs="*",
        metavar="STRATEGY",
        default=None,
        help=(
            "strategies to build eagerly before serving (e.g. no-rep s-rep "
            "n=2); with no names, warms no-rep (and s-rep when --graph is "
            "given); omit the flag to build lazily on first query"
        ),
    )
    serve.add_argument(
        "--removal-steps",
        type=int,
        default=50,
        metavar="N",
        help="length of the built-in removal schedules (default: 50)",
    )
    _add_observability_arguments(serve)
    serve.set_defaults(func=_command_serve)
    return parser


def _command_scenario(args: argparse.Namespace) -> int:
    network = build_scenario(args.preset, seed=args.seed)
    stats = network.stats()
    print(
        format_table(
            ["metric", "value"],
            [[key, value] for key, value in stats.items()],
            title=f"Scenario '{args.preset}' (seed={args.seed})",
        )
    )
    return 0


def _command_report(args: argparse.Namespace) -> int:
    ctx = ExperimentContext(
        preset=args.preset, seed=args.seed, monitor_interval_minutes=args.monitor_interval
    )
    results = run_experiments(REPORT_EXPERIMENTS, ctx=ctx)
    headline = results["headline"]
    hosting_result = results["fig5"]
    downtime = results["fig7"]
    federation = results["fig14"]
    rows = [
        ["top 10% instances: user share",
         format_percentage(headline.scalar("top10pct_user_share"))],
        ["user Gini coefficient", round(headline.scalar("user_gini"), 2)],
        ["top hosting country",
         f"{hosting_result.scalar('top_country')} "
         f"({format_percentage(hosting_result.scalar('top_country_user_share'))} of users)"],
        ["top-3 AS user share", format_percentage(hosting_result.scalar("top3_as_user_share"))],
        ["mean instance downtime", format_percentage(downtime.scalar("mean_downtime"))],
        ["instances >50% downtime",
         format_percentage(downtime.scalar("share_above_50pct_downtime"))],
        ["instances with <10% home toots",
         format_percentage(federation.scalar("share_under_10pct_home"))],
    ]
    print(
        format_table(
            ["headline", "measured"],
            rows,
            title=f"Headline reproduction report — '{args.preset}' scenario, seed {args.seed}",
        )
    )
    return 0


def _command_export(args: argparse.Namespace) -> int:
    output = Path(args.output_dir)
    network = build_scenario(args.preset, seed=args.seed)
    transport = SimulatedTransport(network)
    log = InstanceMonitor(transport, network.domains(), args.monitor_interval).run()
    toot_crawl = TootCrawler(transport, threads=4).crawl()
    graph_crawl = FollowerGraphCrawler(transport, threads=4).crawl()

    anonymiser = Anonymiser(salt=args.salt)
    snapshots = save_snapshots(output / "instance_snapshots.jsonl", log)
    toots = save_toot_records(
        output / "toots.jsonl", anonymiser.anonymise_toots(toot_crawl.all_records())
    )
    edges = save_edges(output / "follower_edges.jsonl", anonymiser.anonymise_edges(graph_crawl.edges))
    print(f"wrote {snapshots} snapshots, {toots} toot records, {edges} follower edges to {output}/")
    print(f"anonymisation salt: {anonymiser.salt}")
    return 0


def _collect_columnar(args: argparse.Namespace) -> "tuple[object, object | None]":
    """Scenario → corpus (→ graph) without materialising the object network."""
    from repro.corpus import (
        DEFAULT_CORPUS_SHARD_SIZE,
        CorpusWriter,
        GraphWriter,
    )

    scenario = build_columnar_scenario(args.preset, seed=args.seed)
    minute = scenario.config.window_minutes - 1
    writer = CorpusWriter(
        args.corpus_dir, shard_size=args.shard_toots or DEFAULT_CORPUS_SHARD_SIZE
    )
    scenario.write_corpus(writer, at_minute=minute)
    store = writer.finalise(crawl_minute=minute)
    graph_store = None
    if args.graph_dir is not None:
        graph_writer = GraphWriter(args.graph_dir)
        scenario.write_graph(graph_writer, at_minute=minute)
        graph_store = graph_writer.finalise(crawl_minute=minute)
    return store, graph_store


def _command_collect(args: argparse.Namespace) -> int:
    if not args.resume:
        if (Path(args.corpus_dir) / "manifest.json").exists():
            print(
                f"error: {args.corpus_dir} already holds a corpus manifest; "
                "choose a fresh directory, pass it to 'run --corpus' to reuse "
                "it, or pass --resume",
                file=sys.stderr,
            )
            return 2
        if args.graph_dir is not None and (Path(args.graph_dir) / "manifest.json").exists():
            print(
                f"error: {args.graph_dir} already holds a graph manifest; "
                "choose a fresh directory, pass it to 'run --graph' to reuse "
                "it, or pass --resume",
                file=sys.stderr,
            )
            return 2
    if args.resume and args.columnar:
        print(
            "error: --resume only applies to the crawling path; the columnar "
            "generator writes stores in one pass",
            file=sys.stderr,
        )
        return 2
    if args.preset == "xlarge" and not args.columnar:
        print(
            "error: the 'xlarge' preset only works with --columnar "
            "(10M toots never fit through the object network)",
            file=sys.stderr,
        )
        return 2
    coverage = None
    try:
        if args.columnar:
            store, graph_store = _collect_columnar(args)
        else:
            network = build_scenario(args.preset, seed=args.seed)
            data = collect_datasets(
                network,
                monitor_interval_minutes=args.monitor_interval,
                corpus_dir=args.corpus_dir,
                corpus_shard_size=args.shard_toots,
                graph_dir=args.graph_dir,
                fault_rates=args.fault_rate,
                fault_seed=args.fault_seed,
                retry_policy=_retry_policy(args),
                resume=args.resume,
                politeness_delay=args.politeness,
            )
            store, coverage = data.corpus, data.coverage
            # without --graph the graph store was temporary: nothing to report
            graph_store = data.graph_store if args.graph_dir is not None else None
    except (ConfigurationError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [
        ["unique toots", store.n_toots],
        ["observations (pre-dedup)", store.n_observations],
        ["shards", store.n_shards],
        ["toots per shard", store.shard_size],
        ["instance domains", int(store.domains.shape[0])],
        ["authors", int(store.authors.shape[0])],
        ["on-disk size (MiB)", round(store.nbytes() / 2**20, 1)],
    ]
    if coverage is not None:
        rows += [
            ["crawl coverage", format_percentage(coverage["coverage_fraction"])],
            ["instances resumed", coverage.get("instances_resumed", 0)],
            ["instances failed", coverage.get("instances_failed", 0)],
        ]
    if graph_store is not None:
        rows += [
            ["graph edges", graph_store.n_edges],
            ["graph nodes", graph_store.n_nodes],
            ["graph on-disk size (MiB)", round(graph_store.nbytes() / 2**20, 1)],
        ]
    print(
        format_table(
            ["corpus", "value"],
            rows,
            title=f"Columnar corpus — '{args.preset}' scenario, seed {args.seed}",
        )
    )
    print(f"wrote {store.n_shards} shard(s) + manifest to {store.path}/")
    if graph_store is not None:
        print(
            f"wrote {graph_store.n_shards} graph shard(s) + manifest to {graph_store.path}/"
        )
    graph_flag = f" --graph {graph_store.path}" if graph_store is not None else ""
    print(f"run experiments from it with: repro-mastodon run fig15 fig16 "
          f"--preset {args.preset} --seed {args.seed} --corpus {store.path}{graph_flag}")
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    rows = [
        [
            experiment.experiment_id,
            experiment.title,
            experiment.benchmark,
            "yes" if has_runner(experiment.experiment_id) else "-",
        ]
        for experiment in EXPERIMENTS.values()
    ]
    print(format_table(["id", "title", "benchmark", "runner"], rows, title="Reproducible experiments"))
    print("\nrun them with: repro-mastodon run <id> [<id> ...] | --all")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if args.run_all and args.experiment_ids:
        print("error: pass experiment ids or --all, not both", file=sys.stderr)
        return 2
    if not args.run_all and not args.experiment_ids:
        print("error: no experiments selected (pass ids or --all)", file=sys.stderr)
        return 2
    ids = list(EXPERIMENTS) if args.run_all else args.experiment_ids
    unknown = [experiment_id for experiment_id in ids if experiment_id not in EXPERIMENTS]
    if unknown:
        known = ", ".join(EXPERIMENTS)
        print(
            f"error: unknown experiment id(s): {', '.join(unknown)} (known: {known})",
            file=sys.stderr,
        )
        return 2

    # user-supplied store directories that already hold a manifest are
    # validated up front, so a broken manifest is a clean exit-2 naming
    # the offending directory instead of a mid-run traceback
    try:
        _validate_store_dirs(args.corpus_dir, args.graph_dir)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    churn_kwargs: dict[str, object] = {}
    if args.churn_ticks is not None:
        churn_kwargs["churn_ticks"] = args.churn_ticks
    if args.churn_seeds is not None:
        churn_kwargs["churn_seeds"] = tuple(args.churn_seeds)
    ctx = ExperimentContext(
        preset=args.preset,
        seed=args.seed,
        monitor_interval_minutes=args.monitor_interval,
        shard_size=args.shard_size,
        corpus_dir=args.corpus_dir,
        graph_dir=args.graph_dir,
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
        retries=_retry_policy(args),
        **churn_kwargs,
    )
    try:
        results = run_experiments(ids, ctx=ctx)
    except (AnalysisError, ConfigurationError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for result in results.values():
        print(result.render_text())
        print()

    if args.json_dir is not None:
        output = Path(args.json_dir)
        output.mkdir(parents=True, exist_ok=True)
        for experiment_id, result in results.items():
            (output / f"{experiment_id}.json").write_text(result.to_json() + "\n")
        print(f"wrote {len(results)} result file(s) to {output}/")

    built = ", ".join(f"{name} ×{count}" for name, count in ctx.counters.items())
    print(f"ran {len(results)} experiment(s) on '{args.preset}' (seed {args.seed}); pipeline builds: {built}")
    return 0


def _validate_store_dirs(corpus_dir: str | None, graph_dir: str | None) -> None:
    """Open any pre-existing store manifests to surface errors early."""
    from repro.corpus import CorpusStore, GraphStore

    if corpus_dir and (Path(corpus_dir) / "manifest.json").exists():
        CorpusStore(corpus_dir)
    if graph_dir and (Path(graph_dir) / "manifest.json").exists():
        GraphStore(graph_dir)


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve import AvailabilityService, serve_http, serve_stdio

    try:
        service = AvailabilityService(
            args.corpus_dir,
            args.graph_dir,
            mmap=not args.no_mmap,
            removal_steps=args.removal_steps,
        )
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.warm is not None:
        try:
            service.warm(args.warm or None)
        except (AnalysisError, DatasetError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"warmed {', '.join(sorted(service.meta()['strategies']))} over "
            f"{service.corpus.n_toots} toots",
            flush=True,
        )
    if args.stdin:
        serve_stdio(service)
        return 0
    serve_http(service, args.host, args.port)
    return 0


def _setup_observability(args: argparse.Namespace) -> None:
    """Install the tracer/metrics/logging state the flags ask for."""
    if hasattr(args, "verbose"):
        obs.configure_logging(args.verbose - args.quiet)
    if getattr(args, "trace_path", None) is not None:
        try:
            obs.set_tracer(obs.Tracer(args.trace_path, fmt=args.trace_format))
        except OSError as exc:
            raise ConfigurationError(f"cannot open trace file: {exc}") from exc
    if getattr(args, "metrics_path", None) is not None:
        obs.enable_metrics(fresh=True)


def _teardown_observability(args: argparse.Namespace, elapsed: float) -> None:
    """Flush trace/metrics output and reset the process-wide state.

    The reset matters beyond hygiene: tests (and embedders) call
    :func:`main` repeatedly in one process, and one invocation's tracer
    must not leak into the next.
    """
    tracer = obs.get_tracer()
    if tracer is not None:
        obs.set_tracer(None)
        tracer.close()
        covered = obs.root_span_seconds(tracer.events)
        pct = 100.0 * covered / elapsed if elapsed > 0 else 0.0
        print(
            f"trace: {len(tracer.events)} span(s) -> {tracer.path} "
            f"[{tracer.fmt}]; root spans cover {pct:.1f}% of {elapsed:.2f}s wall",
            file=sys.stderr,
        )
    if getattr(args, "metrics_path", None) is not None and obs.metrics_enabled():
        text = obs.metrics().render_prometheus()
        obs.disable_metrics()
        if args.metrics_path == "-":
            sys.stdout.write(text)
        else:
            Path(args.metrics_path).write_text(text)
            print(
                f"metrics: wrote Prometheus text to {args.metrics_path}",
                file=sys.stderr,
            )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-mastodon`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _setup_observability(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        return args.func(args)
    finally:
        _teardown_observability(args, time.perf_counter() - started)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

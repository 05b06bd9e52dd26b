"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.experiments import ExperimentResult

#: SHA-256 of each file of ``export OUT --preset tiny --seed 7 --salt fixedsalt``.
#: A pin that moves means the exported data changed, not that the pin is stale.
EXPORT_PINS = {
    "follower_edges.jsonl": "aeaee8bde54ae87aa4742207b68f96281ff9fc1b3eef5a4c10d4873969a0247e",
    "instance_snapshots.jsonl": "0f1e599078c149405e29858a2a1806e8fbe684010f06e4fd259e3c456f882729",
    "toots.jsonl": "4ff647abfdbd75c8089af41de6c781db825f76ed6675de032fe6bd37a17d84b0",
}


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_defaults(self):
        args = build_parser().parse_args(["scenario"])
        assert args.preset == "tiny"
        assert args.seed == 7

    def test_invalid_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "--preset", "gigantic"])

    def test_invalid_preset_lists_the_valid_names(self, capsys):
        from repro.fediverse import preset_names

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "fig15", "--preset", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        for name in preset_names():
            assert name in err

    def test_xlarge_preset_accepted(self):
        args = build_parser().parse_args(["collect", "--corpus", "c",
                                          "--preset", "xlarge", "--columnar"])
        assert args.preset == "xlarge"
        assert args.columnar is True

    def test_run_graph_flag_variants(self):
        args = build_parser().parse_args(["run", "fig15"])
        assert args.graph_dir is None
        with pytest.raises(SystemExit):  # the flag only names a directory
            build_parser().parse_args(["run", "fig15", "--graph"])
        args = build_parser().parse_args(["run", "fig15", "--graph", "g"])
        assert args.graph_dir == "g"

    def test_export_requires_output_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig15", "fig16"])
        assert args.experiment_ids == ["fig15", "fig16"]
        assert args.run_all is False
        assert args.json_dir is None
        assert args.preset == "tiny"
        assert args.shard_size is None

    def test_run_accepts_scale_knobs(self):
        args = build_parser().parse_args(
            ["run", "fig15", "fig16", "--preset", "large", "--shard-size", "100000"]
        )
        assert args.preset == "large"
        assert args.shard_size == 100_000

    def test_run_accepts_churn_knobs(self):
        args = build_parser().parse_args(
            ["run", "churn", "--churn-ticks", "24", "--churn-seeds", "3", "4"]
        )
        assert args.churn_ticks == 24
        assert args.churn_seeds == [3, 4]
        defaults = build_parser().parse_args(["run", "churn"])
        assert defaults.churn_ticks is None
        assert defaults.churn_seeds is None

    def test_every_subcommand_dispatches_via_func(self):
        """set_defaults(func=...) dispatch: no command can silently fall through."""
        for argv in (
            ["scenario"],
            ["report"],
            ["export", "out"],
            ["collect", "--corpus", "out"],
            ["experiments"],
            ["run", "fig1"],
        ):
            args = build_parser().parse_args(argv)
            assert callable(args.func), f"{argv[0]} has no dispatch function"

    def test_collect_requires_corpus_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["collect"])

    def test_run_corpus_flag_variants(self):
        args = build_parser().parse_args(["run", "fig15"])
        assert args.corpus_dir is None
        with pytest.raises(SystemExit):  # the flag only names a directory
            build_parser().parse_args(["run", "fig15", "--corpus"])
        args = build_parser().parse_args(["run", "fig15", "--corpus", "corp"])
        assert args.corpus_dir == "corp"


class TestCommands:
    def test_experiments_lists_registry(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        assert "fig12" in output
        assert "table1" in output
        assert "benchmarks/bench_fig16_random_replication.py" in output
        # every entry is executable, and the listing says so
        assert "runner" in output

    def test_scenario_prints_population(self, capsys):
        assert main(["scenario", "--preset", "tiny", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "instances" in output
        assert "users" in output

    def test_report_prints_headlines(self, capsys):
        assert main(["report", "--preset", "tiny", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "top 10% instances" in output
        assert "mean instance downtime" in output

    def test_export_writes_files(self, tmp_path, capsys):
        assert (
            main(
                [
                    "export",
                    str(tmp_path / "dump"),
                    "--preset",
                    "tiny",
                    "--seed",
                    "3",
                    "--salt",
                    "fixed-salt",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "anonymisation salt: fixed-salt" in output
        assert (tmp_path / "dump" / "instance_snapshots.jsonl").exists()
        assert (tmp_path / "dump" / "toots.jsonl").exists()
        assert (tmp_path / "dump" / "follower_edges.jsonl").exists()

    def test_export_is_pinned_and_runs_no_dataset_collect(self, tmp_path, monkeypatch, capsys):
        """The monitor log comes from ``InstanceMonitor`` itself: export runs
        no ``collect_datasets`` whose crawls it would throw away."""

        def no_collect(*args, **kwargs):
            raise AssertionError("export ran collect_datasets")

        monkeypatch.setattr("repro.cli.collect_datasets", no_collect)
        out = tmp_path / "dump"
        assert main(["export", str(out), "--preset", "tiny", "--seed", "7",
                     "--salt", "fixedsalt"]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in EXPORT_PINS
        }
        assert digests == EXPORT_PINS


class TestRunCommand:
    def test_no_selection_is_an_error(self, capsys):
        assert main(["run"]) == 2
        assert "no experiments selected" in capsys.readouterr().err

    def test_ids_and_all_are_mutually_exclusive(self, capsys):
        assert main(["run", "fig1", "--all"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_unknown_experiment_id_exit_code(self, capsys):
        assert main(["run", "fig1", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err
        assert "known:" in err

    def test_run_prints_results_and_pipeline_summary(self, capsys):
        assert main(["run", "fig14", "headline", "--preset", "tiny", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "[fig14] Home vs remote toots" in output
        assert "[headline] Section 4.1 concentration headlines" in output
        # the context-level counters prove the pipeline was built once
        assert "build_scenario ×1" in output
        assert "collect_datasets ×1" in output

    def test_run_forwards_shard_knobs_into_metadata(self, tmp_path, capsys):
        out_dir = tmp_path / "sharded"
        assert (
            main(["run", "fig15", "--preset", "tiny", "--seed", "7",
                  "--shard-size", "13", "--json", str(out_dir)])
            == 0
        )
        capsys.readouterr()
        payload = json.loads((out_dir / "fig15.json").read_text())
        assert payload["metadata"]["shard_size"] == 13

    def test_run_forwards_churn_knobs_into_metadata(self, tmp_path, capsys):
        out_dir = tmp_path / "churned"
        assert (
            main(["run", "churn", "--preset", "tiny", "--seed", "7",
                  "--churn-ticks", "12", "--churn-seeds", "3", "4",
                  "--json", str(out_dir)])
            == 0
        )
        capsys.readouterr()
        payload = json.loads((out_dir / "churn.json").read_text())
        assert payload["metadata"]["churn_ticks"] == 12
        assert payload["metadata"]["churn_seeds"] == "3,4"
        assert payload["scalars"]["churn_ticks"] == 12

    def test_collect_then_run_corpus_matches_in_memory_run(self, tmp_path, capsys):
        """collect --corpus + run --corpus reproduce a run on temporary stores."""
        legacy_dir = tmp_path / "legacy"
        corpus_dir = tmp_path / "corp"
        corpus_out = tmp_path / "from-corpus"
        assert main(["run", "fig16", "--preset", "tiny", "--seed", "3",
                     "--json", str(legacy_dir)]) == 0
        assert main(["collect", "--corpus", str(corpus_dir), "--preset", "tiny",
                     "--seed", "3", "--shard-toots", "701"]) == 0
        assert (corpus_dir / "manifest.json").exists()
        # no --graph: the follower crawl's store was temporary and is not named
        out = capsys.readouterr().out
        assert "graph edges" not in out and "--graph" not in out
        # re-collecting into the same directory is refused
        assert main(["collect", "--corpus", str(corpus_dir), "--preset", "tiny",
                     "--seed", "3"]) == 2
        # the run reuses the collected corpus instead of re-crawling
        assert main(["run", "fig16", "--preset", "tiny", "--seed", "3",
                     "--corpus", str(corpus_dir), "--json", str(corpus_out)]) == 0
        capsys.readouterr()
        legacy = json.loads((legacy_dir / "fig16.json").read_text())
        corpus = json.loads((corpus_out / "fig16.json").read_text())
        for payload in (legacy, corpus):
            payload["metadata"].pop("elapsed_seconds", None)
            payload["metadata"].pop("corpus_dir", None)
        assert corpus == legacy

    def test_xlarge_without_columnar_is_an_error(self, capsys):
        assert main(["collect", "--corpus", "nowhere", "--preset", "xlarge"]) == 2
        assert "--columnar" in capsys.readouterr().err

    def test_collect_columnar_with_graph_then_run_from_both(self, tmp_path, capsys):
        """collect --columnar --graph writes both stores; run --graph reuses them."""
        corpus_dir = tmp_path / "corp"
        graph_dir = tmp_path / "graph"
        assert main(["collect", "--corpus", str(corpus_dir), "--graph", str(graph_dir),
                     "--columnar", "--preset", "tiny", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "graph edges" in out
        assert (corpus_dir / "manifest.json").exists()
        assert (graph_dir / "manifest.json").exists()
        # the columnar generator draws its own RNG stream, so the stores
        # belong to the *columnar* scenario — run them through fig15 via
        # an in-process context instead of the legacy-scenario CLI run
        from repro.corpus import GraphStore

        store = GraphStore(graph_dir)
        assert store.n_edges > 0

    def test_run_graph_store_matches_networkx_run(self, tmp_path, capsys):
        """run --corpus --graph DIRs reproduce a run on temporary stores."""
        legacy_dir = tmp_path / "legacy"
        stored_dir = tmp_path / "stored"
        assert main(["run", "fig15", "--preset", "tiny", "--seed", "3",
                     "--json", str(legacy_dir)]) == 0
        assert main(["run", "fig15", "--preset", "tiny", "--seed", "3",
                     "--corpus", str(tmp_path / "c"), "--graph", str(tmp_path / "g"),
                     "--json", str(stored_dir)]) == 0
        capsys.readouterr()
        legacy = json.loads((legacy_dir / "fig15.json").read_text())
        stored = json.loads((stored_dir / "fig15.json").read_text())
        for payload in (legacy, stored):
            for key in ("elapsed_seconds", "corpus_dir", "graph_dir"):
                payload["metadata"].pop(key, None)
        assert stored == legacy

    def test_run_json_round_trips_into_experiment_result(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert (
            main(["run", "fig15", "--preset", "tiny", "--seed", "7", "--json", str(out_dir)])
            == 0
        )
        assert "wrote 1 result file(s)" in capsys.readouterr().out
        payload = json.loads((out_dir / "fig15.json").read_text())
        result = ExperimentResult.from_json_dict(payload)
        assert result.experiment_id == "fig15"
        assert result.title == "Toot availability without and with subscription replication"
        assert result.metadata["preset"] == "tiny"
        assert result.metadata["seed"] == 7
        assert len(result.tables) >= 1
        assert len(result.series) >= 1
        assert 0.0 <= result.scalar("no_rep_top10_instances_by_toots") <= 1.0


class TestObservabilityFlags:
    def test_parser_defaults_and_variants(self):
        args = build_parser().parse_args(["run", "fig15"])
        assert args.trace_path is None
        assert args.trace_format == "jsonl"
        assert args.metrics_path is None
        assert args.verbose == 0 and args.quiet == 0

        args = build_parser().parse_args(
            ["run", "fig15", "--trace", "t.jsonl", "--trace-format", "chrome",
             "--metrics", "-vv", "-q"]
        )
        assert args.trace_path == "t.jsonl"
        assert args.trace_format == "chrome"
        assert args.metrics_path == "-"  # stdout sentinel
        assert args.verbose == 2 and args.quiet == 1

        args = build_parser().parse_args(["serve", "corp", "--metrics", "m.prom"])
        assert args.metrics_path == "m.prom"

    def test_invalid_trace_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig15", "--trace-format", "xml"])

    def test_run_traced_with_metrics_end_to_end(self, tmp_path, capsys):
        from repro import obs

        trace_path = tmp_path / "trace.jsonl"
        out_dir = tmp_path / "results"
        assert main(["run", "fig15", "--preset", "tiny", "--seed", "3",
                     "--trace", str(trace_path), "--metrics",
                     "--json", str(out_dir)]) == 0
        captured = capsys.readouterr()

        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        names = {event["name"] for event in events}
        for expected in ("phase/scenario", "phase/collect", "phase/placement",
                         "phase/sweep", "experiment/fig15"):
            assert expected in names, f"missing span {expected}"
        assert "trace:" in captured.err
        assert "root spans cover" in captured.err

        # the Prometheus dump lands on stdout after the result tables
        assert "# TYPE repro_experiment_phase_seconds_total counter" in captured.out
        assert 'phase="sweep"' in captured.out

        # traced runs stamp per-phase seconds into the result metadata
        payload = json.loads((out_dir / "fig15.json").read_text())
        assert payload["metadata"]["phase_scenario_seconds"] >= 0

        # the process-wide state is reset for the next in-process call
        assert obs.get_tracer() is None
        assert not obs.metrics_enabled()

    def test_chrome_trace_loads_as_trace_event_json(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["run", "headline", "--preset", "tiny", "--seed", "3",
                     "--trace", str(trace_path), "--trace-format", "chrome"]) == 0
        capsys.readouterr()
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"], "chrome trace has no events"
        event = payload["traceEvents"][0]
        assert event["ph"] == "X"
        assert set(event) >= {"name", "pid", "tid", "ts", "dur"}

    def test_metrics_written_to_path(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        assert main(["run", "headline", "--preset", "tiny", "--seed", "3",
                     "--metrics", str(metrics_path)]) == 0
        captured = capsys.readouterr()
        assert "# TYPE" not in captured.out  # dump went to the file, not stdout
        assert "repro_experiment_phase_seconds_total" in metrics_path.read_text()

    def test_untraced_metadata_shape_is_unchanged(self, tmp_path, capsys):
        plain_dir = tmp_path / "plain"
        traced_dir = tmp_path / "traced"
        assert main(["run", "fig14", "--preset", "tiny", "--seed", "3",
                     "--json", str(plain_dir)]) == 0
        assert main(["run", "fig14", "--preset", "tiny", "--seed", "3",
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--json", str(traced_dir)]) == 0
        capsys.readouterr()
        plain = json.loads((plain_dir / "fig14.json").read_text())
        traced = json.loads((traced_dir / "fig14.json").read_text())
        assert not any(k.startswith("phase_") for k in plain["metadata"])
        for payload in (plain, traced):
            payload["metadata"] = {
                k: v for k, v in payload["metadata"].items()
                if k != "elapsed_seconds" and not k.startswith("phase_")
            }
        assert traced == plain

    def test_unwritable_trace_path_is_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["run", "fig15", "--trace",
                     str(blocker / "t.jsonl")]) == 2
        assert "cannot open trace file" in capsys.readouterr().err

    def test_missing_trace_parent_directories_are_created(self, tmp_path):
        target = tmp_path / "out" / "nested" / "t.jsonl"
        tracer = obs.Tracer(target)
        obs.set_tracer(None)
        tracer.close()
        assert target.exists()


class TestServeCommand:
    def test_serve_parser_flags(self):
        args = build_parser().parse_args(
            ["serve", "corp", "--graph", "gr", "--port", "9000", "--stdin",
             "--no-mmap", "--warm", "no-rep", "s-rep"]
        )
        assert args.corpus_dir == "corp"
        assert args.graph_dir == "gr"
        assert args.port == 9000
        assert args.stdin and args.no_mmap
        assert args.warm == ["no-rep", "s-rep"]
        assert callable(args.func)

    def test_serve_warm_flag_variants(self):
        assert build_parser().parse_args(["serve", "corp"]).warm is None
        assert build_parser().parse_args(["serve", "corp", "--warm"]).warm == []

    def test_serve_requires_corpus_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_missing_corpus_is_exit_2(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nowhere"), "--stdin"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_corrupt_manifest_names_dir_and_key(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corp"
        assert main(["collect", "--corpus", str(corpus_dir), "--preset", "tiny",
                     "--seed", "3"]) == 0
        capsys.readouterr()
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        manifest["n_toots"] += 5
        (corpus_dir / "manifest.json").write_text(json.dumps(manifest))

        assert main(["serve", str(corpus_dir), "--stdin"]) == 2
        err = capsys.readouterr().err
        assert str(corpus_dir) in err
        assert "key 'n_toots'" in err

        # `run` pre-validates user-supplied stores the same way
        assert main(["run", "fig16", "--preset", "tiny", "--seed", "3",
                     "--corpus", str(corpus_dir)]) == 2
        err = capsys.readouterr().err
        assert str(corpus_dir) in err
        assert "key 'n_toots'" in err

    @pytest.mark.parametrize(
        "defect",
        [{"stop": "123"}, {"file": 7}, {"file": "../outside.npz"}],
        ids=["string-stop", "int-file", "file-outside-store"],
    )
    def test_malformed_shard_entry_is_exit_2(self, tmp_path, capsys, defect):
        corpus_dir = tmp_path / "corp"
        assert main(["collect", "--corpus", str(corpus_dir), "--preset", "tiny",
                     "--seed", "3"]) == 0
        capsys.readouterr()
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        (tmp_path / "outside.npz").write_bytes(
            (corpus_dir / manifest["shards"][0]["file"]).read_bytes()
        )
        manifest["shards"][0].update(defect)
        (corpus_dir / "manifest.json").write_text(json.dumps(manifest))

        assert main(["serve", str(corpus_dir), "--stdin"]) == 2
        err = capsys.readouterr().err
        assert str(corpus_dir) in err and "key 'shards'" in err
        assert main(["run", "fig15", "--preset", "tiny", "--seed", "3",
                     "--corpus", str(corpus_dir)]) == 2
        err = capsys.readouterr().err
        assert str(corpus_dir) in err and "key 'shards'" in err

    def test_serve_warm_unknown_strategy_is_exit_2(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corp"
        assert main(["collect", "--corpus", str(corpus_dir), "--preset", "tiny",
                     "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["serve", str(corpus_dir), "--stdin", "--warm", "bogus"]) == 2
        assert "unknown placement strategy" in capsys.readouterr().err

    def test_serve_stdin_end_to_end(self, tmp_path, capsys, monkeypatch):
        import io

        corpus_dir = tmp_path / "corp"
        graph_dir = tmp_path / "gr"
        assert main(["collect", "--corpus", str(corpus_dir), "--graph",
                     str(graph_dir), "--preset", "tiny", "--seed", "3"]) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "meta\n"
            "availability strategy=s-rep failure=instances/by_toots k=10\n"
            "quit\n"
        ))
        assert main(["serve", str(corpus_dir), "--graph", str(graph_dir),
                     "--stdin", "--warm"]) == 0
        out = capsys.readouterr().out
        lines = [json.loads(line) for line in out.splitlines()
                 if line.startswith("{")]
        assert lines[0]["n_toots"] > 0
        assert lines[0]["mmap"] is True
        assert 0.0 <= lines[1]["availability"] <= 1.0
        assert "warmed no-rep, s-rep" in out

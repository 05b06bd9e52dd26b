"""Each layer imports only what sits below it, and only what it runs.

``repro.core`` supplies the rankings that order removal schedules and
may import the engine; the engine never imports back, at module level
or inside a function, so importing the engine or the query service
loads no ``repro.core`` module.  The corpus stores are the data plane:
they import no engine, crawler or simulator module.  A query server
(``import repro.serve``, or the CLI parsing a ``serve`` command) loads
neither the simulator, the crawler, the datasets nor scipy.  No run
loads networkx, which only the test oracles use.  The package roots
resolve their names lazily, so none of this may move an import into a
timed phase of the benchmark workloads.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

ENGINE_DIR = Path(repro.__file__).parent / "engine"


def loaded_modules(code: str, packages: tuple[str, ...]) -> list[str]:
    """The modules of ``packages`` that ``code`` loads in a fresh interpreter."""
    probe = (
        f"{code}\nimport sys\n"
        f"print(sorted(m for m in sys.modules if m.startswith({packages!r})))"
    )
    env = dict(os.environ, PYTHONPATH=str(ENGINE_DIR.parents[1]))
    return ast.literal_eval(
        subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
        ).stdout.strip()
    )


#: What a query server never runs: the simulator, the crawler, the
#: record datasets, the analyses, the graph sweeps' scipy, and networkx.
NOT_SERVED = (
    "networkx",
    "scipy",
    "repro.core",
    "repro.crawler",
    "repro.datasets",
    "repro.experiments",
    "repro.fediverse",
)


def test_engine_and_serve_load_no_core_module():
    assert loaded_modules("import repro.engine, repro.serve", ("repro.core",)) == []


def test_serve_loads_no_simulator_crawler_or_graph_library():
    assert loaded_modules("import repro.serve", NOT_SERVED) == []


def test_cli_serve_parse_loads_no_simulator_crawler_or_graph_library():
    code = (
        "from repro.cli import build_parser, main\n"
        "build_parser().parse_args(['serve', 'c', '--graph', 'g'])"
    )
    assert loaded_modules(code, NOT_SERVED) == []


def test_run_all_loads_no_networkx():
    """Every experiment runs on the graph columns; networkx is a test oracle."""
    code = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['run', '--all', '--preset', 'tiny']) == 0"
    )
    assert loaded_modules(code, ("networkx",)) == []


def test_corpus_imports_nothing_above_the_data_plane():
    assert loaded_modules(
        "import repro.corpus", ("repro.engine", "repro.crawler", "repro.fediverse")
    ) == []


def test_no_engine_module_imports_core():
    for path in sorted(ENGINE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name.split(".")[:2] != ["repro", "core"], (path.name, name)


#: What the benchmark workloads import, then run at the tiny preset: one
#: runner per experiment group, the checks' sweep and served curve, and
#: the columnar collect and placement grid.  Prints every ``repro``,
#: networkx or scipy module the phases load that the imports did not.
_LATE_IMPORTS = r"""
import ast, sys, tempfile
from pathlib import Path

perfbench = Path(sys.argv[1])
for name in ("workload_pipeline.py", "workload_scale.py", "harness.py"):
    for node in ast.walk(ast.parse((perfbench / name).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            exec(ast.unparse(node))
ids = runnable_ids()  # the pipeline workload lists its runners before any phase


def watched():
    return {m for m in sys.modules if m.split(".")[0] in ("repro", "networkx", "scipy")}


before = watched()
work = Path(tempfile.mkdtemp())
network = build_scenario("tiny", seed=11)
data = collect_datasets(network, corpus_dir=work / "corpus", graph_dir=work / "graph")
ctx = ExperimentContext.from_datasets(data, preset="tiny", seed=11)
ctx.churn_seeds = (1, 2, 3)
ctx.twitter_seed = 1
groups = {}
for experiment_id in ids:
    groups.setdefault(runner_for(experiment_id).__module__, experiment_id)
for experiment_id in groups.values():
    run_experiment(experiment_id, ctx)
checked = ("instances/by_toots", "instances/by_connections")
ctx.sweep(
    [StrategySpec.none(), StrategySpec.subscription()],
    [f for f in ctx.standard_failures() if f.name in checked],
)
AvailabilityService(work / "corpus", work / "graph").curve("no-rep", checked[0])

scenario = build_columnar_scenario("tiny", seed=11)
minute = scenario.config.window_minutes - 1
writer = CorpusWriter(work / "scale-corpus", shard_size=500)
scenario.write_corpus(writer, at_minute=minute)
corpus = writer.finalise(crawl_minute=minute)
graph_writer = GraphWriter(work / "scale-graph")
scenario.write_graph(graph_writer, at_minute=minute)
graph = graph_writer.finalise(crawl_minute=minute)
service = AvailabilityService(work / "scale-corpus", work / "scale-graph")
failures = list(service.failures().values())
users = graph.users_per_instance()
weights = {d: 1.0 + users.get(d, 0) for d in service.candidates}
for spec in (
    StrategySpec.none(),
    StrategySpec.subscription(),
    StrategySpec.random(2, seed=1),
    StrategySpec.random(2, seed=1, weights=weights, name="weighted"),
):
    placements = spec.build_from_corpus(
        corpus, graphs=graph, candidate_domains=service.candidates
    )
    availability_curves(placements, failures, shard_size=500)
print("\n".join(sorted(watched() - before)))
"""

def test_benchmark_phases_import_nothing_new():
    """No import moves into a timed phase.

    A package root that resolves its names lazily must still load a
    name's whole module when the workload imports the name, so the
    phases load nothing the imports did not (an eager root loads it all
    up front).
    """
    root = ENGINE_DIR.parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    loaded = subprocess.run(
        [sys.executable, "-c", _LATE_IMPORTS, str(root / "perfbench")],
        capture_output=True, text=True, check=True, env=env, cwd=root,
    ).stdout.split()
    assert loaded == []

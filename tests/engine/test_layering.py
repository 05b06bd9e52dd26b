"""The engine sits below the analyses: it imports nothing from ``repro.core``.

``repro.core`` supplies the rankings that order removal schedules and
may import the engine; the engine never imports back, at module level
or inside a function, so importing the engine or the query service
loads no ``repro.core`` module.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

ENGINE_DIR = Path(repro.__file__).parent / "engine"


def test_engine_and_serve_load_no_core_module():
    code = (
        "import sys, repro.engine, repro.serve; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['repro', 'core']))"
    )
    env = dict(os.environ, PYTHONPATH=str(ENGINE_DIR.parents[1]))
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()
    assert loaded == "[]"


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

"""Start ``repro-mastodon serve`` for the benchmark, optionally traced.

Usage::

    python perfbench/serve_launcher.py [--spans PATH] -- SERVE_ARGS...

With ``--spans`` the layer wrappers are installed before the server
starts, and the recorded spans are written to PATH as JSON once
``serve_http`` returns — which it does on SIGINT.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    # a process started with SIGINT ignored (e.g. from a background job)
    # passes that on, and Python then installs no KeyboardInterrupt
    # handler: the stop signal would be lost and no spans written
    signal.signal(signal.SIGINT, signal.default_int_handler)
    split = argv.index("--")
    options, serve_args = argv[:split], argv[split + 1 :]
    spans_path = options[options.index("--spans") + 1] if "--spans" in options else None

    tracer = None
    if spans_path is None:
        from repro.cli import main as cli_main
    else:
        import layers
        from tracing import Tracer, install

        tracer = Tracer()
        # installing imports the program, so this span is its import time
        with tracer.span("serve.import"):
            install(tracer, layers.SERVER_PATCHES)
            from repro.cli import main as cli_main

    code = cli_main(["serve", *serve_args])
    if tracer is not None:
        Path(spans_path).write_text(json.dumps({
            "started": started,
            "main_thread": threading.main_thread().ident,
            "spans": tracer.to_json(),
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

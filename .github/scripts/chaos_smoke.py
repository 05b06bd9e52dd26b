"""End-to-end chaos smoke for resilient collection (the CI chaos-smoke job).

Drives the real ``repro-mastodon collect`` CLI as subprocesses and checks
the two resilience contracts on a tiny scenario:

1. **Differential** — a collect run under seeded fault injection
   (``--fault-rate`` / ``--fault-seed``) with retries enabled produces
   corpus *and* graph stores whose content digests are bit-identical to
   a fault-free collect of the same scenario, and the chaos corpus
   records complete crawl coverage.  The two runs take different paths
   through ``CrawlSession``: the clean collect crawls on one worker and
   skips the monitor pass, while the chaos collect runs the monitor
   first and crawls on ``CRAWL_THREADS`` (8) workers, because its
   retries sleep.  So the comparison also shows that neither the crawl
   width nor the skipped monitor moves a digest.
2. **Resume** — a collect killed with SIGKILL mid-crawl leaves a crawl
   journal behind, and re-running with ``--resume`` completes the corpus
   to the same content digest without losing sealed work.  The kill is
   race-tolerant: on a fast runner the first collect may finish before
   the signal lands, in which case the digest comparison still gates.

Usage::

    python .github/scripts/chaos_smoke.py [--workdir chaos-smoke]
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

PRESET = "tiny"
SEED = 11
FAULT_RATE = 0.2
FAULT_SEED = 3
RETRIES = 40
KILL_TIMEOUT_SECONDS = 120.0

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _check(label: str, condition: bool, detail: str = "") -> None:
    if not condition:
        raise SystemExit(f"FAIL {label}: {detail}")
    print(f"  ok  {label}")


def _collect(*arguments: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "-m", "repro.cli", "collect",
               "--preset", PRESET, "--seed", str(SEED), *arguments]
    return subprocess.run(command, env=_env(), capture_output=True, text=True)


def _chaos_flags() -> list[str]:
    # a tiny base delay keeps the smoke fast: with the default 50ms
    # backoff, the injected instance-death chains alone sleep for minutes
    return ["--fault-rate", str(FAULT_RATE), "--fault-seed", str(FAULT_SEED),
            "--retries", str(RETRIES), "--retry-delay", "0.001"]


def _differential(workdir: Path) -> str:
    """Fault-free vs fault-injected collect must be bit-identical."""
    from repro.corpus import CorpusStore, GraphStore

    clean = _collect("--corpus", str(workdir / "clean-corpus"),
                     "--graph", str(workdir / "clean-graph"))
    _check("clean collect exit 0", clean.returncode == 0, clean.stderr[-2000:])
    chaos = _collect("--corpus", str(workdir / "chaos-corpus"),
                     "--graph", str(workdir / "chaos-graph"), *_chaos_flags())
    _check("chaos collect exit 0", chaos.returncode == 0, chaos.stderr[-2000:])

    clean_digest = CorpusStore(workdir / "clean-corpus").content_digest()
    chaos_store = CorpusStore(workdir / "chaos-corpus")
    _check("chaos corpus digest == clean",
           chaos_store.content_digest() == clean_digest)
    coverage = chaos_store.coverage
    _check("chaos coverage complete",
           coverage is not None and coverage.get("complete") is True,
           repr(coverage))
    _check("chaos graph digest == clean",
           GraphStore(workdir / "chaos-graph").content_digest()
           == GraphStore(workdir / "clean-graph").content_digest())
    return clean_digest


def _kill_and_resume(workdir: Path, clean_digest: str) -> None:
    """SIGKILL a chaos collect mid-crawl, then finish it with --resume."""
    from repro.corpus import CorpusStore

    corpus = workdir / "killed-corpus"
    journal = corpus / "journal.jsonl"
    command = [sys.executable, "-m", "repro.cli", "collect",
               "--preset", PRESET, "--seed", str(SEED),
               "--corpus", str(corpus), "--politeness", "0.002",
               *_chaos_flags()]
    victim = subprocess.Popen(
        command, env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # kill only after at least one instance sealed, so the resume leg
    # genuinely skips re-crawling work rather than starting from scratch
    deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
    while time.monotonic() < deadline and victim.poll() is None:
        if journal.exists() and '"sealed"' in journal.read_text(errors="replace"):
            break
        time.sleep(0.005)
    if victim.poll() is None:
        victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)

    if journal.exists():
        print("  --  journal left behind; resuming the killed collect")
        resumed = _collect("--corpus", str(corpus), "--resume", *_chaos_flags())
        _check("resume exit 0", resumed.returncode == 0, resumed.stderr[-2000:])
        _check("journal removed after resume", not journal.exists())
        resumed_line = next(
            (line for line in resumed.stdout.splitlines() if "resumed" in line), ""
        )
        print(f"  --  {resumed_line.strip() or 'no instances needed resuming'}")
    else:
        print("  --  collect finished before the kill landed; gating on the digest")
    _check("manifest present after resume", (corpus / "manifest.json").exists())
    _check("resumed corpus digest == clean",
           CorpusStore(corpus).content_digest() == clean_digest)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="chaos-smoke", metavar="DIR")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    print(f"chaos differential ({PRESET} preset, {FAULT_RATE:.0%} fault rate)")
    clean_digest = _differential(workdir)
    print("kill + resume")
    _kill_and_resume(workdir, clean_digest)
    print("chaos smoke: fault-injected collects are bit-identical and resumable")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

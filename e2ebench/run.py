#!/usr/bin/env python3
"""End-to-end benchmark of the MetaCores stack on its real evaluators.

Run from the repository root::

    python3 e2ebench/run.py --workload served-mix --seed 1 --seconds 30 --trace 0

Workloads (see ``e2ebench/README.md``): ``served-mix`` and
``served-cold``, which ``BENCHMARK.json`` names, and ``cold-search``,
for comparing two commits run by run.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer split of a separately
traced run.  Every answer is checked; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` and
the exit code is non-zero when a check failed.  Nothing is written outside
``e2ebench/_work`` (git-ignored); each run's files live in a
fresh directory there that is removed when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
PYCACHE = WORK_DIR / "pycache"

WORKLOADS = ("cold-search", "served-mix", "served-cold")
#: Fresh interpreters timed per cold-search run for setup_s.
SETUP_PROBES = 9
#: Server launches timed per served run for setup_s.
SERVER_LAUNCHES = 5
#: A run that has not finished by then is abandoned (exit code 3).
HARD_LIMIT_S = 170

#: Metric names and units, in the order BENCHMARK.json lists them.
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())


class HardLimit(Exception):
    """The run overran :data:`HARD_LIMIT_S` or was told to stop."""


def child_env() -> dict:
    """Environment of every interpreter the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "load1_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def time_setup_probe(seed: int) -> float:
    """Seconds from interpreter launch until the workload is ready."""
    start = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(seed)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        probe.stdout.close()
        probe.wait()
    if line.strip() != "ready" or probe.returncode != 0:
        raise RuntimeError("setup probe failed")
    return elapsed


def remove_orphaned_run_dirs() -> None:
    """Delete run directories left by runs that were killed."""
    for path in WORK_DIR.glob("run-*-*"):
        try:
            os.kill(int(path.name.split("-")[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except (ValueError, PermissionError):
            pass


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args: argparse.Namespace, run_dir: Path) -> dict:
    trace = bool(args.trace)
    if args.workload.startswith("served-"):
        import served

        outcome = served.run_served(
            args.workload, args.seed, trace, run_dir, child_env(),
            SERVER_LAUNCHES,
        )
    else:
        import direct

        outcome = direct.run_direct(
            args.seed, args.seconds, trace,
            lambda: time_setup_probe(args.seed), SETUP_PROBES,
        )
        outcome["metrics"]["peak_rss_mb"] = peak_rss_mb()
    recorder = outcome.pop("recorder", None)
    if trace and recorder is not None:
        recorder.write(str(WORK_DIR / f"trace-{args.workload}-{args.seed}.jsonl"))
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    sys.pycache_prefix = str(PYCACHE)
    sys.path.insert(0, str(SRC))

    def overrun(signum, frame):
        if signum == signal.SIGALRM:
            raise HardLimit(f"run exceeded {HARD_LIMIT_S} s")
        raise HardLimit(f"run stopped by {signal.Signals(signum).name}")

    signal.signal(signal.SIGALRM, overrun)
    signal.signal(signal.SIGTERM, overrun)
    signal.alarm(HARD_LIMIT_S)
    host = host_record()
    remove_orphaned_run_dirs()
    run_dir = Path(
        tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK_DIR)
    )
    try:
        outcome = run(args, run_dir)
    except HardLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)
    host["load1_end"] = os.getloadavg()[0]

    attempted = max(1, int(outcome["attempted"]))
    failed = min(attempted, int(outcome["failed"]))
    if args.trace:
        values = dict(outcome["layers"])
        values["bench.failed_frac"] = failed / attempted
        names = METRICS["per_layer"]
    else:
        values = outcome["metrics"]
        names = METRICS["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in names
    }
    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "host": host,
        "workload": args.workload,
        "seed": args.seed,
        "passes": outcome.get("passes", 1),
        "setup_walls": outcome["setup_walls"],
        "search_walls": outcome["search_walls"],
        "latency_ms": outcome["latency_ms"],
        "failed_frac": failed / attempted,
    }))
    correct = not outcome["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The served workloads: ``metacores serve`` under a designer and an explorer.

One server process runs in the run's own directory and listens on an
ephemeral port.  On ``served-mix`` it has a persistent cache and a
design atlas, which direct IIR searches at two Table-4 periods seed
before the timed loop; on ``served-cold`` it has neither.  Then a
closed loop runs on two connections:

- the *designer* issues served IIR ``search`` requests at the other
  five Table-4 periods and five periods between them, one after the
  other (on ``served-mix``, cache appends and atlas ingests); on
  ``served-cold`` it first runs the power-capped Viterbi search of
  ``cold-search``;
- the *explorer* sends a seeded, Zipf-skewed stream against the two
  seeded periods: ``eval`` requests (fidelity 0-2, repeats hit the
  cache) and, on ``served-mix``, ~20 % ``recommend`` (atlas reads).

The loop ends when the designer has finished, so a run measures a fixed
amount of work.  The server and anything it started are always stopped,
also when the run fails or overruns, and the kernel kills the server if
the benchmark process dies first.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from direct import (
    IIR_PERIODS_US, POWER_CAP, POWER_CONFIG, POWER_FIXED, canonical,
    power_capped_spec,
)
from layers import Recorder, engine_layers, median, quantile

# Only the ~80/20 eval/recommend split and the Zipf skew are given; the
# other traffic values are this benchmark's assumptions, not measured
# traffic (README, "Which served-mix parameters are given").

#: Table-4 periods whose stores are seeded before the loop (explorer
#: targets).  The designer searches the other five, then five periods
#: between Table-4 rows, so that its pass lasts about 30 s.
SEEDED_PERIODS_US = (5.0, 1.0)
DESIGNER_PERIODS_US = tuple(
    p for p in IIR_PERIODS_US if p not in SEEDED_PERIODS_US
) + (4.5, 3.5, 2.5, 1.5, 0.75)
#: Distinct (period, point, fidelity) items the explorer draws from.
EXPLORER_POOL = 256
#: Zipf exponent of the explorer's item popularity.
ZIPF_S = 1.1
RECOMMEND_SHARE = 0.2
ALLOCATIONS = (0.3, 0.45, 0.6, 0.75, 0.9)
#: Every CHECK_EVERY-th eval answer is re-priced directly afterwards.
CHECK_EVERY = 10
READY_TIMEOUT_S = 60.0
READY_LINE = re.compile(r"serving on (\S+):(\d+)")
PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """Run in the server child before exec: SIGKILL it when we exit.

    Linux only; elsewhere the server is left to :meth:`Server.stop`.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (AttributeError, OSError):
        return
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Server:
    """One ``metacores serve`` process in its own process group."""

    def __init__(
        self,
        run_dir: Path,
        env: dict,
        cache: Optional[Path],
        atlas: Optional[Path],
        layer_summary: Optional[Path] = None,
    ):
        self.run_dir = run_dir
        self.env = env
        self.cache = cache
        self.atlas = atlas
        #: Where a traced server writes its per-layer summary when it stops.
        self.layer_summary = layer_summary
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def command(self) -> List[str]:
        if self.layer_summary is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [
                sys.executable, str(Path(__file__).with_name("traced_server.py")),
                str(self.layer_summary),
            ]
        command += ["--port", "0"]
        if self.cache is not None:
            command += ["--cache", str(self.cache), "--atlas", str(self.atlas)]
        return command

    def start(self) -> float:
        """Launch; returns seconds until the first ``ping`` is answered."""
        from repro.serve.client import ServeClient

        log = self.run_dir / f"server-{time.monotonic_ns()}.log"
        start = time.perf_counter()
        with open(log, "w") as out:
            self.process = subprocess.Popen(
                self.command(),
                cwd=self.run_dir, env=self.env, stdout=out,
                stderr=subprocess.STDOUT, start_new_session=True,
                preexec_fn=die_with_parent,
            )
        while True:
            match = READY_LINE.search(log.read_text())
            if match:
                self.port = int(match.group(2))
                break
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early:\n{log.read_text()}")
            if time.perf_counter() - start > READY_TIMEOUT_S:
                raise RuntimeError("server did not come up")
            time.sleep(0.002)
        with ServeClient(port=self.port) as client:
            client.ping()
        return time.perf_counter() - start

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(port=self.port, timeout_s=60.0)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kb = re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1)
        return int(kb) / 1024.0

    def stop(self) -> None:
        """Ask for a clean shutdown, then make sure the group is gone."""
        if self.process is None:
            return
        try:
            if self.process.poll() is None:
                try:
                    with self.client() as client:
                        client.shutdown()
                    self.process.wait(timeout=10)
                except (OSError, RuntimeError, subprocess.TimeoutExpired):
                    pass  # the group is killed below either way
        finally:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait()
            self.process = None


def explorer_stream(
    seed: int, n: int, recommend_share: float
) -> List[Tuple[str, float, dict, int]]:
    """The explorer's first ``n`` requests: (op, period, point, fidelity)."""
    from repro.iir.metacore import FAMILIES, WORD_LENGTHS
    from repro.iir.structures.base import available_structures

    rng = random.Random(seed)
    structures = available_structures()
    pool = [
        (
            rng.choice(SEEDED_PERIODS_US),
            {
                "structure": rng.choice(structures),
                "family": rng.choice(FAMILIES),
                "word_length": rng.choice(WORD_LENGTHS),
                "ripple_allocation": rng.choice(ALLOCATIONS),
            },
            rng.randrange(3),
        )
        for _ in range(EXPLORER_POOL)
    ]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(EXPLORER_POOL)]
    stream = []
    for period, point, fidelity in rng.choices(pool, weights, k=n):
        if rng.random() < recommend_share:
            stream.append(("recommend", period, {}, 0))
        else:
            stream.append(("eval", period, point, fidelity))
    return stream


def seed_stores(cache: Path, atlas: Path) -> None:
    """Direct searches at the seeded periods, into the server's stores."""
    from repro.iir import IIRMetaCore, IIRSpec

    for period in SEEDED_PERIODS_US:
        result = IIRMetaCore(
            IIRSpec.paper(period), cache_path=str(cache), atlas_path=str(atlas)
        ).search()
        if not result.feasible:
            raise RuntimeError(f"seeding search at {period} us infeasible")


@dataclass
class Design:
    """One served search of the designer."""

    name: str
    spec: object
    config: Dict[str, object] = field(default_factory=dict)
    fixed: Dict[str, object] = field(default_factory=dict)
    #: Metric the winner must keep under its cap (name, cap), if any.
    cap: Optional[Tuple[str, float]] = None


def designs(workload: str, seed: int) -> List[Design]:
    """The designer's searches: IIR ones, and on ``served-cold`` first the
    power-capped Viterbi search of ``cold-search``."""
    from repro.iir import IIRSpec

    iir = [Design(f"{p:g}us", IIRSpec.paper(p)) for p in DESIGNER_PERIODS_US]
    if workload == "served-mix":
        return iir
    power = Design(
        "power-80pct-vdd",
        power_capped_spec(seed),
        dict(POWER_CONFIG, strategy_seed=seed),
        POWER_FIXED,
        POWER_CAP,
    )
    return [power] + iir


class Loop:
    """The closed loop: a designer thread and an explorer thread."""

    def __init__(
        self,
        server: Server,
        seed: int,
        trace: bool,
        plan: List[Design],
        recommend_share: float,
    ):
        from repro.iir import IIRSpec
        from repro.serve import spec_to_payload

        self.server = server
        self.trace = trace
        self.designs = [(d, spec_to_payload(d.spec)) for d in plan]
        self.payloads = {
            period: spec_to_payload(IIRSpec.paper(period))
            for period in SEEDED_PERIODS_US
        }
        self.stream = explorer_stream(seed, 200_000, recommend_share)
        self.done = threading.Event()
        self.searches: List[Tuple[Design, float, dict]] = []
        self.latencies: Dict[str, List[float]] = {"eval": [], "recommend": []}
        self.samples: List[Tuple[float, dict, int, dict]] = []
        self.problems: List[str] = []
        self.errors: List[str] = []
        self.attempted = {"designer": 0, "explorer": 0}
        self.recorders = {"designer": Recorder(), "explorer": Recorder()}

    def _connect(self, role: str):
        """A client for ``role``, or None (counted as failed) if refused."""
        from repro.serve.client import ServeConnectionError

        try:
            return self.server.client()
        except ServeConnectionError as exc:
            self.attempted[role] += 1
            self.errors.append(f"{role} could not connect: {exc}")
            return None

    def _call(self, recorder: Recorder, name: str, request: str, fn):
        if not self.trace:
            return fn()
        recorder.request = request
        with recorder.span(name):
            return fn()

    def designer(self) -> None:
        from repro.serve.client import ServeConnectionError

        recorder = self.recorders["designer"]
        try:
            client = self._connect("designer")
            if client is None:
                return
            with client:
                for design, payload in self.designs:
                    self.attempted["designer"] += 1
                    t0 = time.perf_counter()
                    try:
                        result = self._call(
                            recorder, "client.search", f"search-{design.name}",
                            lambda: client.search(
                                spec=payload,
                                config=design.config or None,
                                fixed=design.fixed or None,
                            ),
                        )
                    except ServeConnectionError as exc:
                        self.errors.append(f"search {design.name}: {exc}")
                        break
                    except Exception as exc:  # counted, never fatal
                        self.errors.append(f"search {design.name}: {exc}")
                        continue
                    self.searches.append(
                        (design, time.perf_counter() - t0, result)
                    )
        finally:
            self.done.set()

    def explorer(self) -> None:
        from repro.serve.client import ServeConnectionError

        recorder = self.recorders["explorer"]
        client = self._connect("explorer")
        if client is None:
            return
        with client:
            for index, (op, period, point, fidelity) in enumerate(self.stream):
                if self.done.is_set():
                    break
                self.attempted["explorer"] += 1
                spec = self.payloads[period]
                if op == "eval":
                    call = lambda: client.eval(point, fidelity, spec=spec)
                else:
                    call = lambda: client.recommend(spec=spec)
                t0 = time.perf_counter()
                try:
                    answer = self._call(
                        recorder, f"client.{op}", f"explorer-{index}", call
                    )
                except ServeConnectionError as exc:
                    self.errors.append(f"{op} #{index}: {exc}")
                    break
                except Exception as exc:  # counted, never fatal
                    self.errors.append(f"{op} #{index}: {exc}")
                    continue
                self.latencies[op].append(time.perf_counter() - t0)
                if op == "recommend":
                    if answer.get("n_evaluations") != 0 or answer.get(
                        "source"
                    ) != "atlas":
                        self.problems.append(
                            f"recommend #{index} at {period:g} us was not "
                            "answered from the atlas"
                        )
                elif len(self.latencies["eval"]) % CHECK_EVERY == 1:
                    self.samples.append((period, point, fidelity, answer))

    def run(self) -> float:
        # Daemon threads: an overrun abandons them with the stopped server.
        threads = [
            threading.Thread(target=self.designer, name="designer", daemon=True),
            threading.Thread(target=self.explorer, name="explorer", daemon=True),
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start

    def check(self) -> None:
        """Re-price designer winners and sampled eval answers directly."""
        from repro.iir import IIRSpec
        from repro.iir.metacore import IIRMetacoreEvaluator
        from repro.serve import spec_to_payload
        from repro.serve.service import evaluator_for_payload

        for design, _, result in self.searches:
            name = design.name
            if not result.get("feasible"):
                self.problems.append(f"search {name}: winner infeasible")
                continue
            if design.cap is not None:
                metric, cap = design.cap
                value = result["best_metrics"].get(metric, math.inf)
                if not value <= cap:
                    self.problems.append(
                        f"search {name}: {metric}={value} above cap {cap}"
                    )
            # A fresh engine, built the way the server builds its own.
            _, _, engine = evaluator_for_payload(spec_to_payload(design.spec))
            repriced = engine.evaluate(result["best_point"], engine.max_fidelity)
            if canonical(repriced) != canonical(result["best_metrics"]):
                self.problems.append(
                    f"search {name}: winner does not re-price identically"
                )
        engines = {
            period: IIRMetacoreEvaluator(IIRSpec.paper(period))
            for period in SEEDED_PERIODS_US
        }
        for period, point, fidelity, answer in self.samples:
            engine = engines[period]
            # The cache answers a request with the most accurate record
            # it holds, so any fidelity at or above the requested one is
            # a correct answer.
            expected = {
                canonical(engine.evaluate(point, level))
                for level in range(fidelity, engine.max_fidelity + 1)
            }
            if canonical(answer) not in expected:
                self.problems.append(
                    f"eval {point} at fidelity {fidelity}, {period:g} us: "
                    "served answer differs from the direct one"
                )


def run_served(
    workload: str,
    seed: int,
    trace: bool,
    run_dir: Path,
    env: dict,
    setup_repeats: int,
) -> Dict[str, object]:
    """Run a served workload; ``served-cold`` has no persistent stores."""
    stores = workload == "served-mix"
    cache = atlas = None
    if stores:
        cache = run_dir / "cache.jsonl"
        atlas = run_dir / "atlas.jsonl"
        seed_stores(cache, atlas)
    summary_path = run_dir / "server-layers.json" if trace else None
    server = Server(run_dir, env, cache, atlas, summary_path)
    try:
        setups = []
        for attempt in range(setup_repeats):
            setups.append(server.start())
            if attempt < setup_repeats - 1:
                server.stop()
        # Without an atlas there is nothing to recommend from.
        loop = Loop(
            server, seed, trace, designs(workload, seed),
            RECOMMEND_SHARE if stores else 0.0,
        )
        loop_s = loop.run()
        with server.client() as client:
            status = client.status()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    loop.check()

    evals = loop.latencies["eval"]
    recommends = loop.latencies["recommend"]
    completed = len(evals) + len(recommends) + len(loop.searches)
    metrics = {
        "setup_s": median(setups),
        "search_s": sum(wall for _, wall, _ in loop.searches),
        "area_mm2": sum(
            r["best_metrics"]["area_mm2"]
            for _, _, r in loop.searches
            if r.get("feasible")
        ),
        "requests_per_s": completed / loop_s,
        "peak_rss_mb": rss,
    }
    layers = {}
    recorder = None
    if trace:
        layers = served_layers(status, loop.latencies)
        # The last launch served the loop; it wrote its summary on stopping.
        summary = json.loads(summary_path.read_text())
        layers.update(engine_layers(summary, summary["counters"]))
        layers["core.evaluations"] = sum(
            r.get("n_evaluations", 0) for _, _, r in loop.searches
        )
        layers["core.evals_saved"] = sum(
            r.get("evals_saved", 0) for _, _, r in loop.searches
        )
        # Both client threads' spans, as one serial list for the trace file.
        recorder = Recorder()
        for part in loop.recorders.values():
            offset = len(recorder.spans)
            recorder.spans.extend(
                (name, start, end, parent + offset if parent >= 0 else -1, req)
                for name, start, end, parent, req in part.spans
            )
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": sum(loop.attempted.values()),
        "failed": len(loop.errors) + len(loop.problems),
        "problems": loop.errors[:20] + loop.problems,
        "search_walls": {
            design.name: round(wall, 3) for design, wall, _ in loop.searches
        },
        "setup_walls": [round(wall, 3) for wall in setups],
        "latency_ms": {
            f"{op}_p{q}": round(1e3 * quantile(values, q / 100), 3)
            for op, values in loop.latencies.items()
            for q in (50, 90, 99)
            if values
        },
        "recorder": recorder,
    }


def served_layers(
    status: dict, latencies: Dict[str, List[float]]
) -> Dict[str, float]:
    sessions = status.get("sessions", {}).values()
    hits = sum(s["cache_hits"] for s in sessions)
    misses = sum(s["cache_misses"] for s in sessions)
    atlas = status.get("atlas", {})

    def ms(op: str, q: float) -> float:
        values = latencies[op]
        return 1e3 * quantile(values, q) if values else 0.0

    return {
        "serve.batches": status["batches"],
        "serve.batch_size_mean": status["batch_size"]["mean"],
        "serve.server_latency_p50_ms": 1e3 * status["latency_s"]["p50"],
        "serve.rejected": status["rejected"],
        "serve.session_wall_s": sum(s["wall_s"] for s in sessions),
        "serve.session_hit_frac": (
            hits / (hits + misses) if hits + misses else 0.0),
        "serve.eval_p50_ms": ms("eval", 0.5),
        "serve.eval_p90_ms": ms("eval", 0.9),
        "serve.eval_p99_ms": ms("eval", 0.99),
        "serve.recommend_p50_ms": ms("recommend", 0.5),
        "serve.recommend_p99_ms": ms("recommend", 0.99),
        "atlas.hits": atlas.get("hits", 0),
        "atlas.misses": atlas.get("misses", 0),
        "atlas.records": atlas.get("records", 0),
    }

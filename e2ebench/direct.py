"""The in-process workload: cold Viterbi and cold IIR searches.

One pass is three Viterbi searches, each followed by seven of the 21
IIR searches.  Every search is cold: a fresh facade and cost engine, no
persistent cache, no design atlas, one process.  A run cycles over the workload's
fixed search list: the first cycle ("a pass") always runs in full, and
later searches start only while they still fit in the measuring
window.  Each search's wall time is the median over its runs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from layers import (
    COUNTERS, Instrumentation, Recorder, engine_layers, median,
    weighted_quantile,
)

#: Search (c): the power benchmark's golden scenario re-searched at 80 %
#: of the node's nominal supply under an energy cap of 95 % of the
#: nominal area-optimal design's 0.30274988 nJ/bit.
POWER_VDD_FRACTION = 0.8
POWER_CAP_NJ = 0.95 * 0.3027498812427368

#: Table-4 sample periods (microseconds).
IIR_PERIODS_US = (5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25)
IIR_STRATEGIES = ("grid", "evolve", "surrogate")

#: Share of evaluator time the traced run must attribute to named layers.
ATTRIBUTION_GATE = 0.95


@dataclass
class Search:
    """One named search: builds a fresh facade and its cost engine."""

    name: str
    build: Callable[[], Tuple[object, object]]
    #: Metric the winner must keep under its cap (name, cap), if any.
    cap: Optional[Tuple[str, float]] = None


#: Search (c)'s fixed parameters and search settings.
POWER_FIXED = {"G": "standard", "N": 1, "K": 3, "Q": "hard"}
POWER_CONFIG = {"max_resolution": 1, "refine_top_k": 1}
POWER_CAP = ("energy_nj_per_bit", POWER_CAP_NJ)


def power_capped_spec(seed: int):
    """Search (c)'s specification (also searched on ``served-cold``)."""
    from repro.core import BERThresholdCurve
    from repro.power import PowerConfig, technology_node
    from repro.viterbi import ViterbiSpec

    node = technology_node(ViterbiSpec.__dataclass_fields__["feature_um"].default)
    return ViterbiSpec(
        throughput_bps=1e6,
        ber_curve=BERThresholdCurve.single(2.0, 1e-2),
        seed=seed,
        power=PowerConfig(
            vdd_v=POWER_VDD_FRACTION * node.vdd_nominal_v,
            max_energy_nj=POWER_CAP_NJ,
        ),
    )


def viterbi_searches(seed: int) -> List[Search]:
    from repro.core import BERThresholdCurve, SearchConfig
    from repro.viterbi import ViterbiMetaCore, ViterbiSpec
    from repro.viterbi.metacore import ViterbiMetacoreEvaluator

    fixed = {"G": "standard", "N": 1}

    def facade(spec, fixed, **config):
        metacore = ViterbiMetaCore(
            spec,
            fixed=fixed,
            config=SearchConfig(strategy_seed=seed, **config),
        )
        return metacore, ViterbiMetacoreEvaluator(spec)

    def grid_2db():
        spec = ViterbiSpec(
            throughput_bps=5e6,
            ber_curve=BERThresholdCurve.single(2.0, 1e-2),
            seed=seed,
        )
        return facade(spec, fixed, max_resolution=1, refine_top_k=1)

    def evolve_4db():
        spec = ViterbiSpec(
            throughput_bps=1e6,
            ber_curve=BERThresholdCurve.single(4.0, 2e-2),
            seed=seed,
        )
        return facade(
            spec, fixed, max_resolution=2, refine_top_k=1, strategy="evolve"
        )

    def power_capped():
        return facade(power_capped_spec(seed), POWER_FIXED, **POWER_CONFIG)

    return [
        Search("grid-2dB-5Mbps", grid_2db),
        Search("evolve-4dB-1Mbps", evolve_4db),
        Search("power-80pct-vdd", power_capped, cap=POWER_CAP),
    ]


def iir_searches(seed: int) -> List[Search]:
    from repro.core import SearchConfig
    from repro.iir import IIRMetaCore, IIRSpec
    from repro.iir.metacore import IIRMetacoreEvaluator

    def make(period: float, strategy: str):
        def build():
            spec = IIRSpec.paper(period)
            metacore = IIRMetaCore(
                spec,
                config=SearchConfig(strategy=strategy, strategy_seed=seed),
            )
            return metacore, IIRMetacoreEvaluator(spec)

        return Search(f"{strategy}-{period:g}us", build)

    return [
        make(period, strategy)
        for period in IIR_PERIODS_US
        for strategy in IIR_STRATEGIES
    ]


def cold_searches(seed: int) -> List[Search]:
    """The ``cold-search`` workload's pass.

    Each Viterbi search is followed by an equal share of the IIR
    searches, so that the IIR work is sampled at several points of the
    measuring window, not in one block: the host's speed moves within a
    window, and IIR evaluations are the most sensitive to it.
    """
    viterbi, iir = viterbi_searches(seed), iir_searches(seed)
    share = -(-len(iir) // len(viterbi))
    order: List[Search] = []
    for position, search in enumerate(viterbi):
        order.append(search)
        order.extend(iir[position * share:(position + 1) * share])
    return order


def canonical(metrics: Dict[str, float]) -> str:
    """Byte-exact form of a metrics record (inf/nan spelled out)."""
    return json.dumps(dict(metrics), sort_keys=True)


def winner_bytes(result) -> str:
    """The selected design and its metrics, byte for byte."""
    return canonical(
        {"point": result.best_point, "metrics": result.best_metrics}
    )


@dataclass
class Outcome:
    """One finished search."""

    search: Search
    wall_s: float
    result: object


def check(outcome: Outcome) -> List[str]:
    """Why a search's answer is wrong (empty when it is right)."""
    name, result = outcome.search.name, outcome.result
    if not result.feasible or result.best is None:
        return [f"{name}: winner infeasible"]
    problems = []
    metrics = result.best_metrics
    if outcome.search.cap is not None:
        metric, cap = outcome.search.cap
        if not metrics.get(metric, math.inf) <= cap:
            problems.append(
                f"{name}: {metric}={metrics.get(metric)} above cap {cap}"
            )
    # Re-price the winner at top fidelity with a fresh cost engine.
    _, fresh = outcome.search.build()
    repriced = fresh.evaluate(result.best_point, fresh.max_fidelity)
    if canonical(repriced) != canonical(metrics):
        problems.append(f"{name}: winner does not re-price identically")
    return problems


def run_search(search: Search, recorder: Optional[Recorder] = None) -> Outcome:
    metacore, _ = search.build()
    if recorder is not None:
        recorder.request = search.name
        index = recorder.begin("search")
    start = time.perf_counter()
    try:
        result = metacore.search()
    finally:
        wall = time.perf_counter() - start
        if recorder is not None:
            recorder.end(index)
    return Outcome(search, wall, result)


def schedule(
    n: int, seconds: float, expected: Callable[[int], float]
) -> Iterator[Tuple[int, int]]:
    """(cycle, search index) pairs: whole cycles over the search list.

    The first cycle always runs in full; after it, a search starts only
    while its expected wall time still fits in the measuring window.
    """
    start = time.perf_counter()
    cycle = 0
    while True:
        for index in range(n):
            if cycle and time.perf_counter() - start + expected(index) > seconds:
                return
            yield cycle, index
        cycle += 1


def run_direct(
    seed: int,
    seconds: float,
    trace: bool,
    setup_probe: Callable[[], float],
    setup_probes: int,
) -> Dict[str, object]:
    """Run the cold-search workload; returns metrics and check accounting.

    An untraced run also times ``setup_probes`` calls of ``setup_probe``,
    spread over the measuring window between searches, so that
    ``setup_s`` averages over the same stretch of host time as
    ``search_s``.
    """
    from repro.observability.metrics import get_registry

    searches = cold_searches(seed)
    walls: List[List[float]] = [[] for _ in searches]
    traced_walls: List[List[float]] = [[] for _ in searches]
    first: List[Outcome] = []
    traced_first: List[Outcome] = []
    evals: List[List[float]] = [[] for _ in searches]
    problems: List[str] = []
    recorder = Recorder()
    counters: Dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
    setups: List[float] = []
    probes = 0 if trace else setup_probes
    window_start = time.perf_counter()

    def probe_due() -> bool:
        elapsed = time.perf_counter() - window_start
        return len(setups) < probes and elapsed >= len(setups) * seconds / probes

    def expected(index: int) -> float:
        return walls[index][-1] + (traced_walls[index][-1] if trace else 0.0)

    def same_winner(outcome: Outcome, index: int) -> None:
        if winner_bytes(outcome.result) != winner_bytes(first[index].result):
            problems.append(f"{outcome.search.name}: winner differs between runs")

    for cycle, index in schedule(len(searches), seconds, expected):
        if probe_due():
            setups.append(setup_probe())
        search = searches[index]
        outcome = run_search(search)
        if cycle:
            same_winner(outcome, index)
        else:
            first.append(outcome)
        walls[index].append(outcome.wall_s)
        evals[index].extend(r.elapsed_s for r in outcome.result.log.records)
        if not trace:
            continue
        # The traced search runs right after its untraced twin, so that
        # the tracing overhead is measured under the same host conditions.
        # The per-layer split is that of the first cycle.
        sink = recorder if cycle == 0 else Recorder()
        before = get_registry().snapshot()
        with Instrumentation(sink):
            traced = run_search(search, sink)
        after = get_registry().snapshot()
        traced_walls[index].append(traced.wall_s)
        same_winner(traced, index)
        if cycle == 0:
            traced_first.append(traced)
            for name in COUNTERS:
                counters[name] += after.get(name, {}).get("value", 0.0)
                counters[name] -= before.get(name, {}).get("value", 0.0)

    while len(setups) < probes:
        setups.append(setup_probe())
    for outcome in first:
        problems.extend(check(outcome))

    # Each search's median wall over its runs, summed over the list.
    search_s = sum(median(w) for w in walls)
    n_evals = sum(o.result.log.n_evaluations for o in first)
    # A search's evaluations weigh as one run's worth, however many runs
    # of it fitted the window, so that the mix of evaluation kinds (slow
    # Viterbi, fast IIR) is the same on a fast and on a slow host.
    latencies = [
        (elapsed, 1.0 / len(walls[index]))
        for index, run_evals in enumerate(evals)
        for elapsed in run_evals
    ]
    metrics = {
        "search_s": search_s,
        "area_mm2": sum(
            o.result.best_metrics["area_mm2"] for o in first if o.result.best
        ),
        "requests_per_s": n_evals / search_s,
    }
    if setups:
        metrics["setup_s"] = median(setups)
    layer = {}
    if trace:
        layer = direct_layers(traced_first, recorder, counters)
        for q in (50, 90):
            layer[f"core.eval_p{q}_ms"] = (
                1e3 * weighted_quantile(latencies, q / 100))
        traced_s = sum(median(w) for w in traced_walls)
        layer["bench.trace_overhead_s"] = traced_s - search_s
        attributed = layer["bench.attributed_frac"]
        if attributed < ATTRIBUTION_GATE:
            problems.append(
                f"named layers cover {attributed:.1%} of evaluator time, "
                f"below the {ATTRIBUTION_GATE:.0%} gate"
            )
    return {
        "metrics": metrics,
        "layers": layer,
        "attempted": sum(map(len, walls)) + sum(map(len, traced_walls)),
        "failed": len(problems),
        "problems": problems,
        "passes": min(map(len, walls)),
        "search_walls": {
            s.name: [round(wall, 3) for wall in w]
            for s, w in zip(searches, walls)
        },
        "setup_walls": [round(wall, 3) for wall in setups],
        "latency_ms": {
            f"eval_p{q}": round(1e3 * weighted_quantile(latencies, q / 100), 3)
            for q in (50, 90, 95, 99)
        },
        "recorder": recorder if trace else None,
    }


def direct_layers(
    outcomes: List[Outcome], recorder: Recorder, counters: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of the first traced cycle."""
    layer = engine_layers(recorder.summary(), counters)
    hits = sum(o.result.cache_hits for o in outcomes)
    misses = sum(o.result.cache_misses for o in outcomes)
    layer.update({
        "core.evaluations": sum(o.result.log.n_evaluations for o in outcomes),
        "core.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "core.evals_saved": sum(o.result.evals_saved for o in outcomes),
        "core.search_overhead_s": (
            sum(o.wall_s for o in outcomes) - layer["core.evaluate_s"]),
    })
    return layer

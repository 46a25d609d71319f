"""In-memory span recording around the program's layer entry points.

The traced run wraps public functions of ``repro`` from the outside
(module attributes and class methods are swapped for timing wrappers
and restored afterwards); nothing inside ``src/`` is changed.  Each
span is ``(name, start, end, parent, request)``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``request`` identifies
the search or client request the span belongs to.

A layer's *self time* is the total duration of its spans minus the
time their direct children cover, so nested layers are never counted
twice.  Each thread keeps its own stack of open spans, so the wrappers
also work inside the server, whose evaluations run on worker threads.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

Span = Tuple[str, float, float, int, str]

#: Span name of one priced design point (the evaluator boundary).
EVALUATE = "core.evaluate"


class Recorder:
    """Collects spans; each thread nests its own spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.raised: Dict[str, int] = defaultdict(int)
        self.request = ""
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                (name, time.perf_counter(), 0.0, parent, self.request)
            )
            self.calls[name] += 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        name, start, _, parent, request = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, request)
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        index = self.begin(name)
        try:
            yield
        except BaseException:
            self.raised[name] += 1
            raise
        finally:
            self.end(index)

    def wrap(self, name: str, func: Callable) -> Callable:
        """Record a span around every call of ``func``."""

        def traced(*args: Any, **kwargs: Any):
            with self.span(name):
                return func(*args, **kwargs)

        traced.__wrapped__ = func
        return traced

    def wrap_count(self, name: str, func: Callable) -> Callable:
        """Count calls without a span (for hot inner functions)."""
        calls = self.calls

        def counted(*args: Any, **kwargs: Any):
            calls[name] += 1
            return func(*args, **kwargs)

        counted.__wrapped__ = func
        return counted

    # -- reductions ------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Total span duration per name."""
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def self_times(self) -> Dict[str, float]:
        """Duration minus direct-children coverage, summed per name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[index]
        return dict(out)

    def evaluator_split(self) -> Tuple[float, float]:
        """(evaluator wall, part of it not covered by a named layer)."""
        totals = self.totals()
        return totals.get(EVALUATE, 0.0), self.self_times().get(EVALUATE, 0.0)

    def summary(self) -> Dict[str, Any]:
        """The reductions :func:`engine_layers` reads, as plain JSON data."""
        evaluate_s, unattributed_s = self.evaluator_split()
        return {
            "totals": self.totals(),
            "self_times": self.self_times(),
            "calls": dict(self.calls),
            "raised": dict(self.raised),
            "evaluate_s": evaluate_s,
            "unattributed_s": unattributed_s,
        }

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, request) in enumerate(
                self.spans
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


#: Hot inner functions that are counted, not timed.
COUNTED = ("hardware.schedules",)


def _targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) of every wrapped layer entry point."""
    import repro.hardware.power as hardware_power
    import repro.hardware.vliw as vliw
    import repro.iir.metacore as iir_metacore
    import repro.viterbi.metacore as viterbi_metacore
    from repro.core.strategies import SurrogateModel
    from repro.iir.design import DigitalFilter
    from repro.iir.structures.base import STRUCTURE_REGISTRY
    from repro.power import PowerModel
    from repro.viterbi.ber import BERSimulator

    targets = [
        (viterbi_metacore.ViterbiMetacoreEvaluator, "evaluate", EVALUATE),
        (iir_metacore.IIRMetacoreEvaluator, "evaluate", EVALUATE),
        (viterbi_metacore, "optimize_machine", "hardware.optimize_machine"),
        (viterbi_metacore, "viterbi_program", "hardware.program"),
        (vliw, "schedule", "hardware.schedules"),
        (hardware_power, "schedule", "hardware.schedules"),
        (viterbi_metacore, "normalize_viterbi_point", "viterbi.normalize"),
        (viterbi_metacore, "build_decoder", "viterbi.build_decoder"),
        (viterbi_metacore, "estimate_ber", "viterbi.ber_analytic"),
        (BERSimulator, "measure", "viterbi.ber_measure"),
        (PowerModel, "viterbi_report", "power.report"),
        (PowerModel, "iir_report", "power.report"),
        (iir_metacore, "design_filter", "iir.design"),
        (DigitalFilter, "to_tf", "iir.design"),
        (iir_metacore, "realize", "iir.realize"),
        (iir_metacore, "check_quantized", "iir.check_quantized"),
        (iir_metacore, "estimate_iir_implementation", "hardware.synthesis"),
        (SurrogateModel, "fit", "core.surrogate_fit"),
        (SurrogateModel, "rank", "core.surrogate_rank"),
    ]
    for cls in set(STRUCTURE_REGISTRY.values()):
        for klass in cls.__mro__:
            if "dataflow" in vars(klass):
                targets.append((klass, "dataflow", "iir.dataflow"))
    # A base-class method reached through several subclasses is wrapped once.
    seen = set()
    unique = []
    for owner, attr, name in targets:
        if (id(owner), attr) not in seen:
            seen.add((id(owner), attr))
            unique.append((owner, attr, name))
    return unique


class Instrumentation:
    """Installs a recorder's wrappers; ``remove`` restores the originals."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, Any]] = []

    def install(self) -> "Instrumentation":
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            wrap = self.recorder.wrap_count if name in COUNTED else self.recorder.wrap
            setattr(owner, attr, wrap(name, original))
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.remove()


#: Registry counters read as deltas around the traced work.
COUNTERS = ("ber.bits", "ber.decode_s", "power.priced")


def engine_layers(
    summary: Dict[str, Any], counters: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of the cost engines, from :meth:`Recorder.summary`
    and the :data:`COUNTERS` deltas (in-process or inside the server)."""
    totals = summary["totals"]
    self_times = summary["self_times"]
    calls = summary["calls"]
    raised = summary["raised"]
    evaluate_s = summary["evaluate_s"]
    unattributed = summary["unattributed_s"]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    machine_calls = calls.get("hardware.optimize_machine", 0)
    ber_s = totals.get("viterbi.ber_measure", 0.0)
    bits = counters.get("ber.bits", 0.0)
    return {
        "hardware.optimize_machine_s": (
            self_times.get("hardware.optimize_machine", 0.0)),
        "hardware.optimize_machine_calls": machine_calls,
        "hardware.optimize_machine_ms": (
            1e3 * ratio(totals.get("hardware.optimize_machine", 0.0),
                        machine_calls)),
        "hardware.infeasible_frac": (
            ratio(raised.get("hardware.optimize_machine", 0), machine_calls)),
        "hardware.program_s": self_times.get("hardware.program", 0.0),
        "hardware.schedules": calls.get("hardware.schedules", 0),
        "hardware.synthesis_s": self_times.get("hardware.synthesis", 0.0),
        "viterbi.ber_measure_s": ber_s,
        "viterbi.ber_bits": bits,
        "viterbi.ber_bits_per_s": ratio(bits, ber_s),
        "viterbi.decode_s": counters.get("ber.decode_s", 0.0),
        "viterbi.ber_analytic_s": self_times.get("viterbi.ber_analytic", 0.0),
        "viterbi.build_decoder_s": self_times.get("viterbi.build_decoder", 0.0),
        "power.report_s": self_times.get("power.report", 0.0),
        "power.priced": counters.get("power.priced", 0.0),
        "iir.check_quantized_s": self_times.get("iir.check_quantized", 0.0),
        "iir.realize_s": (
            self_times.get("iir.design", 0.0)
            + self_times.get("iir.realize", 0.0)),
        "iir.realizations": calls.get("iir.realize", 0),
        "iir.dataflow_s": self_times.get("iir.dataflow", 0.0),
        "core.evaluate_s": evaluate_s,
        "core.surrogate_fit_s": (
            totals.get("core.surrogate_fit", 0.0)
            + totals.get("core.surrogate_rank", 0.0)),
        "bench.attributed_frac": ratio(evaluate_s - unattributed, evaluate_s),
        "bench.unattributed_s": unattributed,
    }


def quantile(values: List[float], q: float) -> float:
    """Quantile of a non-empty sample, interpolated between order statistics."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def weighted_quantile(samples: List[Tuple[float, float]], q: float) -> float:
    """Quantile of ``(value, weight)`` samples: the smallest value whose
    cumulative weight reaches ``q`` of the total."""
    ordered = sorted(samples)
    target = q * sum(weight for _, weight in ordered)
    cumulative = 0.0
    for value, weight in ordered:
        cumulative += weight
        if cumulative >= target:
            return value
    return ordered[-1][0]


def median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


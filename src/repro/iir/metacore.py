"""The IIR MetaCore — the paper's validation example (Sec. 4.5, 5.3).

Design space: realization structure, filter family (which sets the
order / number of stages for the spec), coefficient word length, and
the ripple allocation — how much of the specified ripple budget the
nominal design consumes, leaving the rest as quantization margin.

The cost-evaluation engine designs the filter, realizes it in the
chosen structure, quantizes the coefficients, measures the quantized
response against the full specification (SPW's role in the paper), and
prices the implementation with the HYPER-style synthesis estimator.
:func:`metacore_definition` hands the driver to the generic facade
(:mod:`repro.core.metacore`), which runs the shared search.
"""

from __future__ import annotations

import math
import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.metacore import MetaCore, MetaCoreDefinition
from repro.core.objectives import Constraint, DesignGoal, Objective
from repro.core.parameters import (
    ContinuousParameter,
    Correlation,
    DesignSpace,
    DiscreteParameter,
    Point,
)
from repro.errors import ConfigurationError, FilterDesignError, SynthesisError
from repro.hardware.synthesis import SynthesisEstimate, estimate_iir_implementation
from repro.iir.design import (
    BandpassSpec,
    FilterSpec,
    LowpassSpec,
    design_filter,
    paper_bandpass_spec,
)
from repro.iir.fixedpoint import check_quantized
from repro.iir.structures.base import Realization, available_structures, realize
from repro.observability.metrics import get_registry
from repro.power import PowerConfig, PowerModel

#: Frequency-grid density per evaluation fidelity (the paper's "longer
#: run times" on finer search grids).
FIDELITY_GRID_POINTS: Tuple[int, ...] = (128, 256, 512)

#: Word lengths the design space exposes.
WORD_LENGTHS: Tuple[int, ...] = tuple(range(6, 25))

FAMILIES: Tuple[str, ...] = (
    "elliptic",
    "chebyshev1",
    "chebyshev2",
    "butterworth",
)

#: Wire ``type`` of each filter specification class.
FILTER_TYPES = {"lowpass": LowpassSpec, "bandpass": BandpassSpec}


def iir_design_space(fixed: Optional[Dict[str, object]] = None) -> DesignSpace:
    """Structure x family x word length x ripple allocation."""
    fixed = dict(fixed or {})
    definitions = [
        DiscreteParameter(
            "structure",
            tuple(available_structures()),
            Correlation.NONE,
            "realization topology",
        ),
        DiscreteParameter(
            "family",
            FAMILIES,
            Correlation.NONE,
            "approximation family (sets order/stages)",
        ),
        DiscreteParameter(
            "word_length",
            WORD_LENGTHS,
            Correlation.MONOTONIC,
            "coefficient word length (bits)",
        ),
    ]
    parameters = []
    for definition in definitions:
        if definition.name in fixed:
            value = fixed.pop(definition.name)
            definition.index_of(value)
            definition = DiscreteParameter(
                definition.name,
                (value,),
                definition.correlation,
                definition.description,
            )
        parameters.append(definition)
    if "ripple_allocation" in fixed:
        value = float(fixed.pop("ripple_allocation"))
        parameters.append(
            ContinuousParameter(
                "ripple_allocation", value, value, Correlation.QUADRATIC
            )
        )
    else:
        parameters.append(
            ContinuousParameter(
                "ripple_allocation",
                0.3,
                0.9,
                Correlation.QUADRATIC,
                "fraction of the ripple budget spent by the nominal design",
            )
        )
    if fixed:
        raise ConfigurationError(f"unknown fixed parameters: {sorted(fixed)}")
    return DesignSpace(parameters)


@dataclass
class IIRSpec:
    """A user specification: filter spec plus sample period."""

    filter_spec: FilterSpec
    sample_period_us: float
    feature_um: float = 1.2
    #: Opt-in power pricing (see :mod:`repro.power`); None keeps the
    #: classic cost engine and its fingerprints untouched.
    power: Optional[PowerConfig] = None

    def __post_init__(self) -> None:
        if self.sample_period_us <= 0:
            raise ConfigurationError("sample period must be positive")

    @classmethod
    def paper(
        cls,
        sample_period_us: float,
        power: Optional[PowerConfig] = None,
    ) -> "IIRSpec":
        """The Sec. 5.3 band-pass spec at a Table-4 sample period."""
        return cls(
            filter_spec=paper_bandpass_spec(),
            sample_period_us=sample_period_us,
            power=power,
        )

    def goal(self) -> DesignGoal:
        """Minimize area subject to meeting the frequency-domain spec.

        With power pricing enabled, energy per output sample joins the
        objectives (unless configured constraint-only) and the
        configured energy/power caps become constraints.
        """
        objectives = [Objective("area_mm2")]
        constraints = [Constraint("spec_violation", upper=0.0)]
        if self.power is not None:
            if self.power.objective:
                objectives.append(Objective("energy_nj_per_sample"))
            if self.power.max_energy_nj is not None:
                constraints.append(
                    Constraint(
                        "energy_nj_per_sample",
                        upper=self.power.max_energy_nj,
                    )
                )
            if self.power.max_power_mw is not None:
                constraints.append(
                    Constraint("power_mw", upper=self.power.max_power_mw)
                )
        return DesignGoal(objectives=objectives, constraints=constraints)

    def to_payload(self) -> Dict[str, Any]:
        """This specification as a wire-safe plain dict."""
        for filter_type, filter_class in FILTER_TYPES.items():
            if isinstance(self.filter_spec, filter_class):
                break
        else:
            raise ConfigurationError(
                f"unsupported filter spec {type(self.filter_spec).__name__}"
            )
        payload: Dict[str, Any] = {
            "kind": "iir",
            "sample_period_us": self.sample_period_us,
            "feature_um": self.feature_um,
            "filter": {
                "type": filter_type,
                **dataclasses.asdict(self.filter_spec),
            },
        }
        if self.power is not None:
            payload["power"] = self.power.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "IIRSpec":
        """The specification a :meth:`to_payload` dict describes."""
        filter_payload = payload.get("filter")
        if not isinstance(filter_payload, dict):
            raise ConfigurationError("iir spec needs a filter object")
        filter_type = filter_payload.get("type")
        filter_class = (
            FILTER_TYPES.get(filter_type)
            if isinstance(filter_type, str)
            else None
        )
        if filter_class is None:
            raise ConfigurationError(
                f"unknown filter spec type {filter_type!r}"
            )
        filter_spec = filter_class(
            *(
                float(filter_payload[edge.name])
                for edge in dataclasses.fields(filter_class)
            )
        )
        return cls(
            filter_spec=filter_spec,
            sample_period_us=float(payload["sample_period_us"]),
            feature_um=float(payload.get("feature_um", 1.2)),
            power=PowerConfig.from_payload(payload.get("power")),
        )

    def features(self) -> Dict[str, float]:
        """Normalized numeric features: log period, edges, log ripples."""
        features = {
            "log10_period_us": math.log10(self.sample_period_us),
            "feature_um": float(self.feature_um),
        }
        for name, value in dataclasses.asdict(self.filter_spec).items():
            if name.endswith("_ripple"):
                features[f"log10_{name}"] = math.log10(value)
            else:
                features[name] = value
        return features


def _margin_spec(spec: FilterSpec, allocation: float) -> FilterSpec:
    """The tighter spec the nominal design targets.

    Designing to ``allocation * ripple`` leaves ``1 - allocation`` of
    the budget for coefficient quantization.
    """
    if not 0.05 <= allocation <= 1.0:
        raise ConfigurationError("ripple allocation out of (0.05, 1]")
    if not isinstance(spec, tuple(FILTER_TYPES.values())):
        raise ConfigurationError(
            f"unsupported spec type {type(spec).__name__}"
        )
    return dataclasses.replace(
        spec,
        passband_ripple=allocation * spec.passband_ripple,
        stopband_ripple=allocation * spec.stopband_ripple,
    )


class IIRMetacoreEvaluator:
    """Cost-evaluation engine for the IIR MetaCore."""

    def __init__(self, spec: IIRSpec) -> None:
        self.spec = spec
        self.max_fidelity = len(FIDELITY_GRID_POINTS) - 1
        self._realizations: Dict[Tuple[str, str, float], Realization] = {}
        self._power_model: Optional[PowerModel] = (
            PowerModel.for_spec(spec.feature_um, spec.power)
            if spec.power is not None
            else None
        )
        #: DVFS delay stretch (1 / clock ratio); exactly 1.0 with power
        #: off or nominal Vdd, keeping non-energy metrics bit-identical.
        self._delay_scale: float = (
            1.0 / self._power_model.frequency_scale
            if self._power_model is not None
            else 1.0
        )

    def fingerprint(self) -> str:
        """Cross-run cache key over the spec and evaluation settings."""
        import repro

        # Enabled power configs get their own cache namespace; the
        # default power-off fingerprint stays byte-identical.
        power = (
            self.spec.power.fingerprint_fragment()
            if self.spec.power is not None
            else ""
        )
        return (
            f"iir:v{repro.__version__}"
            f":grids={FIDELITY_GRID_POINTS}"
            f":period={self.spec.sample_period_us:.6g}"
            f":feature={self.spec.feature_um:.6g}"
            f":spec={self.spec.filter_spec!r}"
            f"{power}"
        )

    # ------------------------------------------------------------------

    def _realization(
        self, structure: str, family: str, allocation: float
    ) -> Realization:
        """Design + realize, cached (designs are deterministic)."""
        key = (structure, family, round(allocation, 4))
        if key not in self._realizations:
            margin = _margin_spec(self.spec.filter_spec, allocation)
            tf = design_filter(margin, family).to_tf()
            self._realizations[key] = realize(structure, tf)
        return self._realizations[key]

    def evaluate(self, point: Point, fidelity: int) -> Dict[str, float]:
        """Design, realize, quantize, measure, and synthesize one candidate."""
        if not 0 <= fidelity <= self.max_fidelity:
            raise ConfigurationError(f"fidelity {fidelity} out of range")
        grid_points = FIDELITY_GRID_POINTS[fidelity]
        structure = str(point["structure"])
        family = str(point["family"])
        word_length = int(point["word_length"])
        allocation = float(point["ripple_allocation"])
        if self._power_model is not None:
            registry = get_registry()
            registry.counter("power.priced").inc()
            registry.counter(f"power.priced.f{fidelity}").inc()
        dead = {
            "area_mm2": math.inf,
            "spec_violation": math.inf,
            "throughput_samples_per_s": 0.0,
        }
        if self._power_model is not None:
            dead["energy_nj_per_sample"] = math.inf
            dead["power_mw"] = math.inf
        try:
            realization = self._realization(structure, family, allocation)
        except FilterDesignError:
            return dead
        report = check_quantized(
            realization, self.spec.filter_spec, word_length, grid_points
        )
        violation = report.violation(self.spec.filter_spec)
        stats = realization.dataflow()
        try:
            estimate: SynthesisEstimate = estimate_iir_implementation(
                stats,
                word_length,
                self.spec.sample_period_us,
                feature_um=self.spec.feature_um,
                delay_scale=self._delay_scale,
            )
        except SynthesisError:
            return dead
        metrics = {
            "area_mm2": estimate.area_mm2,
            "spec_violation": violation,
            "passband_ripple": report.passband_ripple,
            "stopband_level": report.stopband_level,
            "n_multipliers": float(estimate.n_multipliers),
            "n_adders": float(estimate.n_adders),
            "n_registers": float(estimate.n_registers),
            "clock_ns": estimate.clock_ns,
            "throughput_samples_per_s": estimate.throughput_samples_per_s,
            "latency_us": estimate.latency_us,
        }
        if self._power_model is not None:
            power = self._power_model.iir_report(
                stats, word_length, estimate
            )
            metrics["energy_nj_per_sample"] = power.energy_nj
            metrics["power_mw"] = power.power_mw
        return metrics


@dataclass
class IIRMetaCore(MetaCore):
    """Facade: specification in, optimized realization out."""

    kind = "iir"


def _build_realization(engine: IIRMetacoreEvaluator, point: Point) -> Realization:
    """The quantized realization a design point describes."""
    realization = engine._realization(
        str(point["structure"]),
        str(point["family"]),
        float(point["ripple_allocation"]),
    )
    return realization.quantized(int(point["word_length"]))


def metacore_definition() -> MetaCoreDefinition:
    """The IIR driver's MetaCore definition.

    Built on every lookup, so each field resolves this module's names at
    call time (``e2ebench/layers.py`` swaps some of them while tracing).
    """
    return MetaCoreDefinition(
        kind="iir",
        spec_type=IIRSpec,
        design_space=iir_design_space,
        evaluator=IIRMetacoreEvaluator,
        spec_to_payload=IIRSpec.to_payload,
        spec_from_payload=IIRSpec.from_payload,
        spec_features=IIRSpec.features,
        build=_build_realization,
    )

"""Contract every MetaCore definition keeps.

Parametrized over the driver table (:data:`repro.core.metacore.DRIVERS`),
so a new driver is held to the same contract by adding one sample
specification below: wire payloads round-trip byte-identically, the
served fingerprint equals the facade engine's, the atlas can extract
features, and a checkpointed search selects what a plain one does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.atlas import spec_features
from repro.core import BERThresholdCurve, SearchConfig
from repro.core.evalcache import evaluator_fingerprint
from repro.core.metacore import (
    DRIVERS,
    MetaCore,
    definition_for,
    definition_for_spec,
)
from repro.errors import ConfigurationError
from repro.iir import IIRSpec
from repro.serve import spec_from_payload, spec_to_payload
from repro.serve.service import fingerprint_for_payload
from repro.viterbi import ViterbiSpec

#: kind -> (sample spec, a quick search config).
SAMPLES = {
    "viterbi": (
        ViterbiSpec(
            throughput_bps=1e6, ber_curve=BERThresholdCurve.single(4.0, 2e-2)
        ),
        SearchConfig(max_resolution=0, refine_top_k=1),
    ),
    "iir": (
        IIRSpec.paper(2.0),
        SearchConfig(max_resolution=1, refine_top_k=2),
    ),
}


def test_every_driver_has_a_sample():
    assert set(SAMPLES) == set(DRIVERS)


@pytest.fixture(params=sorted(DRIVERS))
def kind(request):
    return request.param


def _facade(kind, **options):
    spec, config = SAMPLES[kind]
    definition = definition_for(kind)
    return MetaCore(
        spec, fixed=definition.default_fixed, config=config, **options
    )


def test_definition_matches_its_kind(kind):
    spec, _ = SAMPLES[kind]
    definition = definition_for(kind)
    assert definition.kind == kind
    assert isinstance(spec, definition.spec_type)
    assert definition_for_spec(spec).kind == kind
    assert _facade(kind).definition.kind == kind


def test_payload_round_trips(kind):
    spec, _ = SAMPLES[kind]
    payload = spec_to_payload(spec)
    assert payload["kind"] == kind
    wire = json.dumps(payload)
    back = spec_from_payload(json.loads(wire))
    assert back == spec
    assert json.dumps(spec_to_payload(back)) == wire


def test_served_fingerprint_equals_facade_engine(kind):
    spec, _ = SAMPLES[kind]
    engine = _facade(kind)._engine()
    assert fingerprint_for_payload(spec_to_payload(spec)) == (
        evaluator_fingerprint(engine)
    )


def test_spec_features_defined(kind):
    features = spec_features(SAMPLES[kind][0])
    assert features
    assert all(isinstance(value, float) for value in features.values())


def test_checkpointed_search_selects_the_same_design(kind, tmp_path):
    plain = _facade(kind).search()
    checkpointed = _facade(
        kind, checkpoint_path=str(tmp_path / "session.json")
    ).search()
    assert plain.feasible
    assert checkpointed.best_point == plain.best_point
    assert checkpointed.best_metrics == plain.best_metrics


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError, match="unknown spec kind"):
        definition_for("fir")
    with pytest.raises(ConfigurationError, match="unknown spec kind"):
        spec_from_payload({"kind": "fir"})
    with pytest.raises(ConfigurationError, match="unknown spec kind"):
        spec_from_payload({"kind": ["viterbi"]})
    with pytest.raises(ConfigurationError):
        spec_to_payload(object())
    with pytest.raises(TypeError):
        spec_features(object())


def test_core_imports_no_driver():
    code = (
        "import sys, repro.core, repro.core.metacore\n"
        "loaded = [m for m in sys.modules\n"
        "          if m.startswith(('repro.viterbi', 'repro.iir'))]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)

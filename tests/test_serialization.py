"""JSON forms of the records and reports that no CLI golden writes.

Each case builds one instance by hand and pins its to_json_dict() (and
config_dict(), where the class has a config) against a literal dict.  The
literal must also survive a JSON round trip, so every key is a string and
every sequence a list.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isochron._serial import (
    _float_text,
    number_texts,
    pairs_template,
    plain,
    value_text,
    write_json,
)
from isochron.engine import TraceEvent, network_state
from isochron.model import ModelParams
from isochron.poincare import NotPeriodic, PulseSignature
from isochron.regions import Functional, OracleReport, RegionSpec, VolumeReport
from isochron.sweep import EscapeReport, ScanRecord, StabilityFailure, StabilityReport, _fmt

P = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)

PARAMS = {"b": 3.0, "eps": 0.58, "n": 3, "tau": 0.58}

STABILITY_CONFIG = {
    "command": "stability_probe",
    **PARAMS,
    "sigma": [0.1, 0.2, 0.3],
    "dtheta_max": 0.0001,
    "dsigma_max": 0.0002,
    "n_trials": 5,
    "tol": 1e-09,
}

ESCAPE_CONFIG = {"command": "boundary_escape_demo", **PARAMS, "horizon": 1.74}

CASES = {
    "stability-report": (
        StabilityReport(
            params=P,
            sigma=(0.1, 0.2, 0.3),
            dtheta_max=1e-4,
            dsigma_max=2e-4,
            n_trials=5,
            seed=7,
            tol=1e-9,
            n_run=4,
            n_refused=1,
            max_distance=0.5,
            failures=(
                StabilityFailure(
                    sigma_perturbed=(0.1, 0.2, 0.3),
                    dtheta=(1e-5, -2e-5),
                    dsigma=(1e-6, 2e-6, -3e-6),
                    distance=0.5,
                    trace="0.1 fire 1",
                ),
            ),
        ),
        {
            **STABILITY_CONFIG,
            "seed": 7,
            "n_run": 4,
            "n_refused": 1,
            "max_distance": 0.5,
            "ok": False,
            "failures": [
                {
                    "sigma_perturbed": [0.1, 0.2, 0.3],
                    "dtheta": [1e-05, -2e-05],
                    "dsigma": [1e-06, 2e-06, -3e-06],
                    "distance": 0.5,
                    "trace": "0.1 fire 1",
                }
            ],
        },
        STABILITY_CONFIG,
    ),
    "escape-report": (
        EscapeReport(
            params=P,
            region_nonempty=False,
            horizon=1.74,
            events=(
                TraceEvent("fire", 0.1, (0,)),
                TraceEvent("pulse", 0.68, (1, 2), 1),
            ),
            result=NotPeriodic(
                iterations=3,
                last_state=network_state(
                    phases=(0.25, 0.5, 0.0), ftds=((0.125,), (), (0.0,))
                ),
            ),
        ),
        {
            **ESCAPE_CONFIG,
            "region_nonempty": False,
            "events": 2,
            "result": {
                "periodic": False,
                "iterations": 3,
                "last_state": {"phases": [0.25, 0.5, 0.0], "ftds": [[0.125], [], [0.0]]},
            },
        },
        ESCAPE_CONFIG,
    ),
    "oracle-report": (
        OracleReport(
            kind="IR4",
            n_samples=10,
            seed=3,
            expected_poincare_period=4,
            poincare_period_counts={4: 8, 1: 2, 12: 1},
            failures=(
                ((0.1, 0.2, 0.3), "transient 2"),
                ((0.15, 0.25, 0.35), "period 1"),
            ),
            all_pulse_equivalent=False,
            pair_synchronized=None,
            center_poincare_period=1,
            center_orbit_period=0.435,
        ),
        {
            "kind": "IR4",
            "n_samples": 10,
            "seed": 3,
            "expected_poincare_period": 4,
            "poincare_period_counts": {"1": 2, "4": 8, "12": 1},
            "failures": [
                {"sigma": [0.1, 0.2, 0.3], "reason": "transient 2"},
                {"sigma": [0.15, 0.25, 0.35], "reason": "period 1"},
            ],
            "all_pulse_equivalent": False,
            "pair_synchronized": None,
            "center_poincare_period": 1,
            "center_orbit_period": 0.435,
            "ok": False,
        },
        None,
    ),
    "region-spec": (
        RegionSpec(
            kind="IR4",
            dim=3,
            labels=("s1", "s2", "s3"),
            tau=0.58,
            orderings=(((1.0, 0.0, 0.0), 0.0), ((-1.0, 0.0, 1.0), 0.0)),
            functionals=(
                Functional(label="F", weights=(1.0, -1.0, 0.0), offset=0.25, lower=0.0),
            ),
        ),
        {
            "kind": "IR4",
            "dim": 3,
            "labels": ["s1", "s2", "s3"],
            "tau": 0.58,
            "orderings": [
                {"weights": [1.0, 0.0, 0.0], "offset": 0.0},
                {"weights": [-1.0, 0.0, 1.0], "offset": 0.0},
            ],
            "functionals": [
                {
                    "label": "F",
                    "weights": [1.0, -1.0, 0.0],
                    "offset": 0.25,
                    "lower": 0.0,
                    "upper": 1.0,
                }
            ],
        },
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_form_is_pinned(case):
    instance, json_form, config = CASES[case]
    assert json.loads(json.dumps(json_form)) == json_form
    assert instance.to_json_dict() == json_form
    if config is not None:
        assert json.loads(json.dumps(config)) == config
        assert instance.config_dict() == config


def dumped(payload: dict) -> str:
    buffer = io.StringIO()
    write_json(buffer, payload)
    return buffer.getvalue()


def json_dumped(payload: dict) -> str:
    return json.dumps(plain(payload), sort_keys=True, indent=1) + "\n"


GOLDEN = Path(__file__).parent / "golden"

#: The JSON goldens the dataset writer produced (the others hold lists).
WRITTEN = sorted(p.name for p in GOLDEN.glob("*.json") if p.read_text().startswith("{"))


@pytest.mark.parametrize("name", WRITTEN)
def test_writer_matches_json_dump_on_every_golden(name):
    text = (GOLDEN / name).read_text()
    payload = json.loads(text)
    assert dumped(payload) == json_dumped(payload) == text


#: Records that the writer fills into their class's template as list
#: items, with the values whose text is easiest to get wrong.
TEMPLATED = {
    "scan-record": ScanRecord(
        -0.0, 5e-324, True, 0, 4, float("inf"), None, ((0.0, -0.0), (0.5, -float("inf")))
    ),
    "scan-record-not-periodic": ScanRecord(0.25, float("nan"), False),
    "volume-report": VolumeReport(
        volume=0.125, stderr=float("nan"), method="exact", degenerate=True, vertex_count=4
    ),
}


@pytest.mark.parametrize("case", sorted(CASES) + sorted(TEMPLATED))
def test_writer_matches_json_dump_on_records(case):
    instance = CASES[case][0] if case in CASES else TEMPLATED[case]
    payload = {"record": instance, "records": (instance, instance), "none": ()}
    assert dumped(payload) == json_dumped(payload)


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e-310, float("nan"), float("inf"), -float("inf")])
    | st.text()
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.recursive(
        _LEAVES,
        lambda children: st.lists(children)
        | st.tuples(children, children)
        | st.dictionaries(st.text(), children)
        | st.dictionaries(st.integers(), children),
        max_leaves=25,
    )
)
def test_writer_matches_json_dump_on_drawn_values(value):
    payload = {"value": value, "items": [value, (), {}, [value]], "empty": []}
    assert dumped(payload) == json_dumped(payload)


_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, float("nan"), float("inf"), -float("inf")]
)
_POINTS = st.lists(st.tuples(_FLOATS, _FLOATS), max_size=3).map(tuple)
_COUNTS = st.none() | st.integers()
# Equal projections, one with -0.0, as two tuple objects.
_ZEROS = (
    ScanRecord(0.0, 0.5, True, 0, 1, 0.5, 0, ((0.0, 0.5),)),
    ScanRecord(-0.0, 0.5, True, 0, 1, 0.5, 0, ((-0.0, 0.5),)),
)


@st.composite
def _records(draw):
    """ScanRecords, one projection tuple shared among them, mixed with
    records of other classes and with numpy floats in a field."""
    shared = draw(_POINTS)
    scan = st.builds(
        ScanRecord,
        theta1=_FLOATS | _FLOATS.map(np.float64),
        theta2=_FLOATS,
        periodic=st.booleans(),
        transient_iters=_COUNTS,
        poincare_period=_COUNTS,
        orbit_period=st.none() | _FLOATS,
        signature_id=_COUNTS,
        projection=_POINTS | st.just(shared),
    )
    other = (
        st.builds(VolumeReport, volume=_FLOATS, stderr=_FLOATS, method=st.text(), samples=_COUNTS)
        | st.builds(
            PulseSignature,
            period=_FLOATS,
            receptions=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3), _FLOATS)).map(
                tuple
            ),
        )
        | st.just(CASES["escape-report"][0].result)
    )
    records = draw(st.lists(scan | other, max_size=8))
    return (*records, *_ZEROS, *records)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_records())
def test_writer_matches_json_dump_on_drawn_records(records):
    payload = {"records": records, "first": records[0], "seed": None}
    assert dumped(payload) == json_dumped(payload)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(_FLOATS, max_size=6),
    st.lists(st.lists(_FLOATS, max_size=3).map(tuple), max_size=4),
    st.lists(_FLOATS | st.integers() | st.booleans() | _FLOATS.map(np.float64), max_size=4),
)
def test_writer_matches_json_dump_on_float_lists(floats, pairs, mixed):
    # A list or tuple of plain floats is written in one join; lists of
    # them, lists mixing floats with other scalars or with float
    # subclasses, and the empty list are written as json.dumps does.
    payload = {
        "floats": floats,
        "tuple": tuple(floats),
        "pairs": pairs,
        "nested": [[floats, tuple(floats)], pairs],
        "mixed": mixed,
        "specials": [-0.0, float("nan"), float("inf"), -float("inf"), 0.0],
        "empty": [[], ()],
    }
    assert dumped(payload) == json_dumped(payload)
    assert dumped({"items": [pairs, floats]}) == json_dumped({"items": [pairs, floats]})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_POINTS | st.lists(st.tuples(_FLOATS, _FLOATS), min_size=4, max_size=12).map(tuple))
def test_pairs_template_is_value_text_of_the_pairs(points):
    # A phase scan writes each projection as its period's template filled
    # with the points' float texts, in place of value_text of the pairs.
    flat = [x for point in points for x in point]
    got = pairs_template(len(points)) % tuple(map(_float_text, flat))
    assert got == value_text(points)


#: Bit patterns of doubles: NaNs of both signs with the smallest, the
#: largest and a drawn payload, and any pattern at all.
_NAN_BITS = st.builds(
    lambda sign, payload: sign << 63 | 0x7FF << 52 | payload,
    st.integers(0, 1),
    st.sampled_from([1, 2**51, 2**52 - 1]) | st.integers(1, 2**52 - 1),
)
_BITS = _NAN_BITS | st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(_FLOATS | st.sampled_from([-5e-324, 2.2250738585072014e-308, 1e16, 1e17])),
    st.lists(_BITS),
    st.lists(st.integers(-(2**63), 2**63 - 1)),
)
def test_number_texts_are_the_writers_texts(floats, bits, ints):
    # Each number is written as _fmt ("%.17g") or _float_text ("%r") writes
    # it, once per bit pattern: -0.0 apart from 0.0, every NaN alike.
    drawn = np.array(bits, dtype=np.uint64).view(float)
    doubles = np.concatenate([floats, drawn, drawn[::-1], floats[::-1]]).astype(float)
    for values, cases in (
        (doubles, (("%.17g", _fmt), ("%r", _float_text))),
        (np.array(ints * 2, dtype=np.int64), (("%.17g", _fmt), ("%r", repr))),
    ):
        for spec, text in cases:
            texts, code = number_texts(values, spec)
            assert [texts[c] for c in code.tolist()] == list(map(text, values.tolist()))
            assert len(texts) == len(set(values.view(np.uint64).tolist()))

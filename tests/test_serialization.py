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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isochron._serial import plain, write_json
from isochron.engine import TraceEvent, network_state
from isochron.model import ModelParams
from isochron.poincare import NotPeriodic
from isochron.regions import Functional, OracleReport, RegionSpec
from isochron.sweep import EscapeReport, StabilityFailure, StabilityReport

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


@pytest.mark.parametrize("case", sorted(CASES))
def test_writer_matches_json_dump_on_records(case):
    instance, _, _ = CASES[case]
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

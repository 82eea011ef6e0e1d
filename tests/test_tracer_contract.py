"""The benchmark tracer (perfbench/tracer.py) wraps public functions in
every module that imports them by name.  A refactor that unbinds one of
those names breaks the traced benchmark run; this test makes it fail the
ordinary suite too."""

import importlib.util
import math
from pathlib import Path

import isochron.cli
import isochron.poincare
import isochron.regions
from isochron import ModelParams, eq_init_state, region_spec

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    watched = [
        (isochron.regions, "detect_periodicity"),
        (isochron.regions, "poincare_map"),
        (isochron.regions, "region_volume"),
        (isochron.cli, "pulse_signature"),
        (isochron.cli, "main"),
    ]
    originals = [getattr(module, name) for module, name in watched]
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
        for (module, name), original in zip(watched, originals):
            assert getattr(module, name) is not original, f"{name} was not wrapped"
    finally:
        tracer.uninstall()
    for (module, name), original in zip(watched, originals):
        assert getattr(module, name) is original, f"{name} was not restored"


def test_tracer_counts_the_hull_of_one_exact_volume():
    """The hull counter patches ``scipy.spatial.ConvexHull``, so it sees the
    hull only while ``regions`` looks the class up at call time."""
    spec = region_spec(ModelParams(b=3.0, eps=0.58, n=3, tau=0.58), "IR4")
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
        isochron.regions.region_volume(spec)
    finally:
        tracer.uninstall()
    assert tracer.counts["regions.hull.calls"] == 1
    assert tracer.counts["regions.vertex_enum.subsets"] == math.comb(12, 3)


def test_tracer_counts_the_events_of_batched_detection():
    """Batched detection runs its section returns on a LockstepEngine
    through Engine.run_until_section, so the tracer counts their events:
    exactly as many as the engines of the scalar detector process."""
    params = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)
    grid = (0.1, 0.4, 0.7)
    starts = [eq_init_state(params, t1, t2) for t1 in grid for t2 in grid]
    counts = {}
    for name, detect in (
        ("scalar", lambda: [isochron.poincare.detect_periodicity(params, s) for s in starts]),
        ("batched", lambda: isochron.poincare.detect_periodicity_many(params, starts)),
    ):
        tracer = _load_tracer_module().Tracer()
        try:
            tracer.install()
            detect()
        finally:
            tracer.uninstall()
        counts[name] = tracer.counts
    assert counts["batched"]["engine.events"] == counts["scalar"]["engine.events"] > 0
    assert counts["batched"]["engine.section_returns"] > 0

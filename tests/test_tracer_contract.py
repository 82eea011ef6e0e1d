"""The benchmark tracer (perfbench/tracer.py) wraps public functions in
every module that imports them by name.  A refactor that unbinds one of
those names breaks the traced benchmark run; this test makes it fail the
ordinary suite too."""

import importlib.util
import math
from pathlib import Path

from oracle import scalar_detect

import isochron.cli
import isochron.lockstep
import isochron.poincare
import isochron.regions
import isochron.sweep
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
        (isochron.cli, "poincare_map"),
        (isochron.sweep, "poincare_map"),
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
    exactly as many as the engines of the scalar reference detector
    (tests/oracle.py) process."""
    params = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)
    grid = (0.1, 0.4, 0.7)
    starts = [eq_init_state(params, t1, t2) for t1 in grid for t2 in grid]
    counts = {}
    for name, detect in (
        ("scalar", lambda: [scalar_detect(params, s) for s in starts]),
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


def test_tracer_counts_the_rows_of_both_sampler_callers():
    """A Monte Carlo volume and sample_interior both test their draws
    through the ``membership_many`` global of ``isochron.regions``, the one
    the tracer wraps, so every drawn row is counted."""
    params = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
        isochron.regions.region_volume(
            region_spec(params, "IR4"), method="montecarlo", samples=100_000
        )
        volume = dict(tracer.counts)
        isochron.regions.sample_interior(params, "IR4", 10)
    finally:
        tracer.uninstall()
    assert volume["regions.membership_many.rows"] == 100_000
    assert volume["regions.sampler.rows"] == 0
    assert tracer.counts["regions.sampler.rows"] > 0
    assert tracer.counts["regions.sampler.accepted"] >= 10


def test_tracer_counts_the_interning_of_a_phase_scan():
    """phase_scan interns each class of cells through the
    ``pulse_signature`` and ``pulse_equivalent`` globals of
    ``isochron.sweep``, the ones the tracer wraps."""
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
        isochron.sweep.phase_scan(ModelParams(b=3.0, eps=0.58, n=3, tau=0.58), step=0.05)
    finally:
        tracer.uninstall()
    assert tracer.counts["sweep.intern.compares"] > 0
    assert tracer.span_name.count(tracer.names.index("poincare.signature")) > 0


def test_tracer_times_and_sizes_both_writers_of_a_phase_scan(tmp_path):
    """The writer layer (``sweep.write.s`` and ``sweep.write.bytes``) is
    traced through the ``write_*`` names that the CLI looks up: one span per
    file, and exactly the bytes that land on disk."""
    out_csv, out_json = tmp_path / "scan.csv", tmp_path / "scan.json"
    argv = ["scan", "phases", "--step", "0.1", "--out-csv", str(out_csv),
            "--out-json", str(out_json), "--timestamp", "2000-01-01T00:00:00+00:00"]
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
        assert isochron.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    counts = tracer.deterministic_counts()
    assert counts["sweep.write.spans"] == 2
    assert counts["sweep.write.bytes"] == out_csv.stat().st_size + out_json.stat().st_size > 0
    assert tracer.metrics()["sweep.write.s"] > 0


def test_tracer_counts_every_lockstep_return_of_a_phase_scan(tmp_path, monkeypatch):
    """``engine.section_returns`` counts the lockstep returns that detection
    runs, one per ``LockstepEngine._section_return`` call, so it shows how
    many returns a window of live rows takes."""
    calls = []
    section_return = isochron.lockstep.LockstepEngine._section_return

    def counted(self, trace):
        calls.append(len(self.phases))
        return section_return(self, trace)

    monkeypatch.setattr(isochron.lockstep.LockstepEngine, "_section_return", counted)
    argv = ["scan", "phases", "--step", "0.1", "--out-csv", str(tmp_path / "scan.csv"),
            "--timestamp", "2000-01-01T00:00:00+00:00"]
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
        assert isochron.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["engine.section_returns"] == len(calls) > 0

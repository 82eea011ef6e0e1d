"""Tracing neither varies nor changes what the workloads compute.

Run from the repository root: ``python3 -m pytest perfbench``.  Each
workload runs at a small size in fresh interpreters, as the benchmark runs
it: twice traced and once untraced.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import OUT, run_child, sha256  # noqa: E402
from workloads import param_atlas, phase_portrait, verify_suite  # noqa: E402

SMALL = {
    "phase-portrait": lambda: phase_portrait(0, cells_per_axis=20),
    "param-atlas": lambda: param_atlas(0, cells_per_axis=4),
    "verify-suite": lambda: verify_suite(0, samples=200, project_samples=50),
}

#: Counters each workload must exercise, so an empty trace cannot pass.
EXERCISED = {
    "phase-portrait": ("engine.events", "engine.section_returns", "sweep.intern.compares"),
    "param-atlas": ("regions.vertex_enum.subsets", "regions.vertex_enum.vertices"),
    "verify-suite": ("engine.events", "regions.membership_many.rows", "regions.sampler.accepted"),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def runs(request):
    workload = SMALL[request.param]()
    root = OUT / f"test-{workload.name}"
    shutil.rmtree(root, ignore_errors=True)
    reports, hashes = {}, {}
    for label, trace in (("traced-a", True), ("traced-b", True), ("plain", False)):
        report = run_child(workload, root / label, trace=trace)
        assert "crashed" not in report, report.get("crashed")
        assert [c["rc"] for c in report["calls"]] == [0] * len(workload.invocations)
        reports[label] = report
        hashes[label] = {
            name: sha256(root / label / name)
            for inv in workload.invocations
            for name in inv.datasets
        }
    yield workload, reports, hashes
    shutil.rmtree(root, ignore_errors=True)


def test_traced_counts_repeat(runs):
    workload, reports, _ = runs
    counts = reports["traced-a"]["counts"]
    assert counts == reports["traced-b"]["counts"]
    for name in EXERCISED[workload.name]:
        assert counts[name] > 0, name


def test_tracing_leaves_datasets_unchanged(runs):
    _, _, hashes = runs
    assert hashes["traced-a"] == hashes["plain"]
    assert hashes["traced-b"] == hashes["plain"]

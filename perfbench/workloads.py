"""The benchmark's workloads: CLI invocations, their items and output checks.

Every workload runs serially (``--threads 1``) at the reference parameters
``b=3 eps=0.58 n=3 tau=0.58`` with ``--timestamp`` pinned, so each dataset
is byte-reproducible.  Why each one exists:

``phase-portrait``
    ``scan phases`` on the 0.01 grid (10^4 cells): the event engine, the
    section map, periodicity detection, pulse signatures and the sweep
    writers.  It never enumerates vertices or samples a region, so a
    ``regions`` optimisation must leave it unchanged.  ``scan phases`` has
    no random input, so the seed does not change this workload.
``param-atlas``
    ``scan params`` with exact IR3/IR4/IR5 volumes on a 10x10 (eps, tau)
    grid: vertex enumeration and the qhull hull.  The event engine never
    runs, so an ``engine`` or ``poincare`` optimisation must leave it
    unchanged.  The seed is the scan's root seed, which exact volumes only
    record in the header.
``verify-suite``
    ``verify --suite all`` with 20000 samples, ``region volume --method
    both`` per family and ``region project --compare``: 20000 one-return
    section maps from on-orbit states (cost per engine set-up, not long
    runs), the rejection sampler, Monte Carlo volume and the projection
    overlay.  The seed drives the verify and projection samplers.  The
    Monte Carlo volume check is a 3-stderr test that a fraction of seeds
    fails by design, so it runs at the CLI's default seed 0, whose pass is
    part of the stored reference.

Each invocation is summarised from its standard output and datasets; the
summary is what ``reference.json`` stores, and a run passes when its
summary matches the reference within the invocation's float tolerance.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TIMESTAMP = "2000-01-01T00:00:00+00:00"
COMMON = (
    "--threads", "1",
    "--timestamp", TIMESTAMP,
    "--b", "3", "--eps", "0.58", "--n", "3", "--tau", "0.58",
)


@dataclass(frozen=True)
class Invocation:
    """One ``isochron.cli.main(argv)`` call and how to judge its output.

    datasets     files the call writes, relative to the run directory
    summarize    (stdout, run directory) -> JSON-able summary of the output
    rel_tol      relative tolerance for floats in the summary
    abs_tol      absolute tolerance for floats in the summary
    """

    name: str
    argv: tuple[str, ...]
    datasets: tuple[str, ...]
    summarize: Callable[[str, Path], dict]
    rel_tol: float = 0.0
    abs_tol: float = 0.0


@dataclass(frozen=True)
class Workload:
    """items counts the unit of work behind ``items_per_s``; preload names
    the modules the CLI imports lazily on this workload, which belong to
    its set-up time."""

    name: str
    items: int
    preload: tuple[str, ...]
    invocations: tuple[Invocation, ...]


# -- summaries ------------------------------------------------------------------


def _data_rows(path: Path) -> int:
    """CSV rows below the commented header and the column line."""
    with open(path) as fh:
        return sum(1 for line in fh if not line.startswith("#")) - 1


def _phase_scan_summary(stdout: str, run_dir: Path) -> dict:
    with open(run_dir / "phases.json") as fh:
        data = json.load(fh)
    census: Counter = Counter()
    signatures = [
        {"poincare_period": None, "cells": 0, "orbit_period_min": math.inf,
         "orbit_period_max": -math.inf}
        for _ in data["signatures"]
    ]
    for record in data["records"]:
        if not record["periodic"]:
            continue
        census[record["poincare_period"]] += 1
        sig = signatures[record["signature_id"]]
        sig["poincare_period"] = record["poincare_period"]
        sig["cells"] += 1
        sig["orbit_period_min"] = min(sig["orbit_period_min"], record["orbit_period"])
        sig["orbit_period_max"] = max(sig["orbit_period_max"], record["orbit_period"])
    return {
        "stdout": stdout.strip(),
        "cells": len(data["records"]),
        "census": {str(k): census[k] for k in sorted(census)},
        "signatures": signatures,
        "csv_rows": _data_rows(run_dir / "phases.csv"),
    }


def _param_scan_summary(stdout: str, run_dir: Path) -> dict:
    with open(run_dir / "params.json") as fh:
        records = json.load(fh)["records"]
    kinds = ("ir3", "ir4", "ir5")
    return {
        "stdout": stdout.strip(),
        "nonempty": {k: sum(r[f"exists_{k}"] for r in records) for k in kinds},
        "volumes": {k: [r[f"volume_{k}"] for r in records] for k in kinds},
        "csv_rows": _data_rows(run_dir / "params.csv"),
    }


def _verify_summary(stdout: str, run_dir: Path) -> dict:
    lines = stdout.splitlines()
    with open(run_dir / "verify.json") as fh:
        data = json.load(fh)
    return {
        "verdict": lines[-1],
        "checks": len(data["checks"]),
        "failed": [c["name"] for c in data["checks"] if not c["ok"]],
        "fail_lines": [line for line in lines if line.startswith("FAIL")],
    }


def _volume_summary(kind: str) -> Callable[[str, Path], dict]:
    def summarize(stdout: str, run_dir: Path) -> dict:
        with open(run_dir / f"volume-{kind}.json") as fh:
            data = json.load(fh)
        check = [line.split()[1] for line in stdout.splitlines() if line.startswith("check:")]
        return {"exact": data["reports"]["exact"]["volume"], "ok": data["ok"], "check": check}

    return summarize


def _projection_summary(stdout: str, run_dir: Path) -> dict:
    with open(run_dir / "project.json") as fh:
        data = json.load(fh)
    keys = (
        "contained",
        "numeric_orbit_count",
        "mirror_orbit_count",
        "unidentified_period4_count",
        "seeded_orbit_count",
    )
    return {
        **{k: data[k] for k in keys},
        "violations": len(data["violations"]),
        "containment": [line for line in stdout.splitlines() if line.startswith("containment")],
        "csv_rows": _data_rows(run_dir / "project.csv"),
    }


# -- workloads ------------------------------------------------------------------


def phase_portrait(seed: int, cells_per_axis: int = 100) -> Workload:
    step = repr(1.0 / cells_per_axis)
    argv = (
        "scan", "phases", *COMMON, "--step", step,
        "--out-csv", "phases.csv", "--out-json", "phases.json",
    )
    scan = Invocation(
        "scan-phases", argv, ("phases.csv", "phases.json"), _phase_scan_summary,
        abs_tol=1e-9,
    )
    return Workload("phase-portrait", cells_per_axis**2, (), (scan,))


def param_atlas(seed: int, cells_per_axis: int = 10) -> Workload:
    grid = f"{cells_per_axis}x{cells_per_axis}"
    argv = (
        "scan", "params", *COMMON, "--grid", grid, "--volume-kinds", "ir3,ir4,ir5",
        "--seed", str(seed), "--out-csv", "params.csv", "--out-json", "params.json",
    )
    scan = Invocation(
        "scan-params", argv, ("params.csv", "params.json"), _param_scan_summary,
        rel_tol=1e-12, abs_tol=1e-18,
    )
    return Workload("param-atlas", cells_per_axis**2, ("scipy.spatial",), (scan,))


def verify_suite(seed: int, samples: int = 20000, project_samples: int = 1000) -> Workload:
    verify = Invocation(
        "verify",
        ("verify", *COMMON, "--suite", "all", "--samples", str(samples),
         "--seed", str(seed), "--out", "verify.json"),
        ("verify.json",),
        _verify_summary,
    )
    volumes = tuple(
        Invocation(
            f"volume-{kind}",
            ("region", "volume", *COMMON, "--kind", kind, "--method", "both",
             "--seed", "0", "--out", f"volume-{kind}.json"),
            (f"volume-{kind}.json",),
            _volume_summary(kind),
            rel_tol=1e-12,
        )
        for kind in ("ir3", "ir4", "ir5")
    )
    project = Invocation(
        "project",
        ("region", "project", *COMMON, "--compare", "--samples", str(project_samples),
         "--seed", str(seed), "--out-csv", "project.csv", "--out-json", "project.json"),
        ("project.csv", "project.json"),
        _projection_summary,
    )
    return Workload("verify-suite", samples, ("scipy.spatial",), (verify, *volumes, project))


WORKLOADS = {
    "phase-portrait": phase_portrait,
    "param-atlas": param_atlas,
    "verify-suite": verify_suite,
}


# -- checking -------------------------------------------------------------------


def compare(got, want, rel_tol: float, abs_tol: float, path: str = "") -> list[str]:
    """Differences between a summary and its reference; floats within tolerance."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [
            p for k in want for p in compare(got[k], want[k], rel_tol, abs_tol, f"{path}.{k}")
        ]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [
            p
            for i, (g, w) in enumerate(zip(got, want))
            for p in compare(g, w, rel_tol, abs_tol, f"{path}[{i}]")
        ]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=rel_tol, abs_tol=abs_tol):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []

"""isochron benchmark: end-to-end and per-layer metrics of three CLI workloads.

Usage, from the repository root (no install needed; the package is loaded
from ``src``)::

    python3 perfbench/run.py --workload phase-portrait --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (``child.py``) that imports
``isochron.cli`` plus the modules the workload loads lazily, then calls
``isochron.cli.main(argv)`` for each of the workload's invocations.  The
run repeats until ``--seconds`` have passed (at least three times) and
reports medians.  Every repetition's output is checked against
``reference.json``, and every dataset's sha256 must repeat across
repetitions.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

``wall_ref_s``
    median wall time of the timed body, in reference seconds (below).
``items_per_ref_s``
    items (grid cells, or requested verify samples) per reference second.
``setup_s``
    median time to import ``isochron.cli`` and the workload's lazily
    loaded modules in each repetition's fresh interpreter.
``peak_rss_mb``
    median ``ru_maxrss`` of the repetitions' processes.
``ops_ok_frac``
    CLI invocations that exited 0 with correct output, over those
    attempted; the result line also carries ``attempted`` and ``failed``.

Reference seconds take out the host's speed drift.  On a shared 2-core
host the speed of identical code drifts by up to 1.5x for seconds to
minutes at a time, so medians of raw wall time over identical 30 s runs
spread by 10-22% (first to third quartile over ten runs), while wall time
scaled by a kernel timed in the same process spreads by 4-8%.  Each child
times ``child.speed_probe`` just before and just after its body; a
repetition's reference time is its wall time times ``REF_PROBE_S`` over
the mean of the two probes, so at the probe's usual speed on the reference
host a reference second is a second.  The raw ``wall_s`` and
``items_per_s`` are printed as well but not gated.

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of ``tracer.py`` (raw seconds) plus ``trace.overhead_s``,
the traced minus the untraced median wall time in reference seconds.

The last line of standard output is the JSON result; the lines above it
are a human-readable table, the ROADMAP baseline beside this run, and an
``info`` line with machine details and dataset hashes.  Scratch files go
to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Workload, compare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REPS = 3
#: Every child is stopped by this many seconds after the run starts, so the
#: run exits within its 180 s limit even if the program hangs.
RUN_LIMIT_S = 165

#: Usual ``speed_probe`` time on the reference host (Intel Xeon, 2 cores,
#: Python 3.11.7).  Fixed: changing it rescales every reference time.
REF_PROBE_S = 0.0135

END_TO_END = {
    "wall_ref_s": "s",
    "items_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}

#: Units of the per-layer metrics; names ending in these suffixes.
LAYER_UNITS = (
    (".calls", "count"),
    (".section_returns", "count"),
    (".events", "count"),
    (".compares", "count"),
    (".subsets", "count"),
    (".vertices", "count"),
    (".rows", "count"),
    (".bytes", "B"),
    ("_per_s", "1/s"),
    ("_ms", "ms"),
    (".yield", "ratio"),
    (".accept_ratio", "ratio"),
    ("_s", "s"),
    (".s", "s"),
)

#: ROADMAP's baseline table (Python 3.10.12, ad-hoc scripts), printed beside
#: the comparable figure of this run, if any: (row, baseline, metric, unit).
BASELINE = {
    "phase-portrait": (
        ("phase_scan step 0.01 (10^4 cells), serial", "5.0 s", "wall_s", "s"),
        ("Engine.simulate, one network", "2.2e5 events/s", "engine.events_per_s", "1/s"),
    ),
    "param-atlas": (
        ("param_scan 20x20 + exact volume IR3+IR4+IR5, 1.3+2.5+13.8 s", "44 ms/cell",
         "ms_per_item", "ms/cell"),
    ),
    "verify-suite": (
        ("verify --suite all --samples 1000", "0.75 s", None, ""),
        ("sample_interior IR4, 10^5 points, ~3% acceptance", "1.05 s", None, ""),
    ),
}

_PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def child_env() -> dict[str, str]:
    """The parent's environment with the thread knobs pinned to one."""
    env = {k: v for k, v in os.environ.items() if k != "ISOCHRON_THREADS"}
    env.update(_PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(
    workload: Workload, run_dir: Path, trace: bool, body: bool = True, timeout: float = RUN_LIMIT_S
) -> dict:
    """One repetition in a fresh interpreter; returns its report.

    A child that crashes, times out or writes no report yields a report with
    ``crashed`` set and no calls.
    """
    run_dir.mkdir(parents=True)
    spec = {
        "invocations": [list(inv.argv) for inv in workload.invocations] if body else [],
        "preload": list(workload.preload),
        "trace": trace,
        "trace_path": str(OUT / f"trace-{workload.name}.json"),
    }
    (run_dir / "spec.json").write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "spec.json", "report.json"],
            cwd=run_dir,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {timeout:.0f} s", "calls": []}
    report_path = run_dir / "report.json"
    if proc.returncode != 0 or not report_path.exists():
        return {"crashed": f"exit {proc.returncode}: {proc.stderr[-2000:]}", "calls": []}
    return json.loads(report_path.read_text())


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def evaluate(workload: Workload, run_dir: Path, report: dict, reference: dict):
    """Check one repetition: (problems per invocation name, dataset hashes)."""
    problems: dict[str, list[str]] = {}
    hashes: dict[str, str] = {}
    calls = report["calls"]
    for i, inv in enumerate(workload.invocations):
        found = problems.setdefault(inv.name, [])
        if i >= len(calls):
            found.append(report.get("crashed", "not run"))
            continue
        call = calls[i]
        if call["error"] is not None:
            found.append(call["error"].strip().splitlines()[-1])
            continue
        if call["rc"] != 0:
            found.append(f"exit {call['rc']}")
            continue
        try:
            summary = inv.summarize(call["stdout"], run_dir)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            found.append(f"unreadable output: {exc!r}")
            continue
        want = reference.get(workload.name, {}).get(inv.name)
        if want is None:
            found.append("no reference stored")
        else:
            found.extend(compare(summary, want, inv.rel_tol, inv.abs_tol, inv.name)[:5])
        for name in inv.datasets:
            hashes[name] = sha256(run_dir / name)
    return problems, hashes


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "platform": platform.platform(),
        "pinned_env": _PINNED_ENV,
    }


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for layer metric {name}")


def median_of(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def wall_ref_s(reports: list[dict]) -> float:
    """Median wall time, each repetition scaled to the reference speed."""
    return statistics.median(r["wall_s"] * REF_PROBE_S / r["probe_s"] for r in reports)


def measure(workload: Workload, seed: int, seconds: float, trace: bool, reference: dict):
    """Repeat the workload until the time budget is spent; return the raw reports."""
    limit = time.monotonic() + RUN_LIMIT_S
    run_root = OUT / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_root, ignore_errors=True)
    # Untimed warm-up: byte-compiles the sources once per checkout.
    run_child(workload, run_root / "warmup", trace=False, body=False)

    plain: list[dict] = []
    traced: list[dict] = []
    problems: dict[str, list[str]] = {inv.name: [] for inv in workload.invocations}
    hash_sets: dict[str, set[str]] = {}
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    rep = 0
    while True:
        for is_traced in (False, True) if trace else (False,):
            run_dir = run_root / f"rep{rep}-{'traced' if is_traced else 'plain'}"
            report = run_child(workload, run_dir, is_traced, timeout=limit - time.monotonic())
            found, hashes = evaluate(workload, run_dir, report, reference)
            shutil.rmtree(run_dir)
            for name, issues in found.items():
                attempted += 1
                failed += bool(issues)
                problems[name].extend(issues)
            for name, digest in hashes.items():
                hash_sets.setdefault(name, set()).add(digest)
            if "crashed" not in report:
                (traced if is_traced else plain).append(report)
        rep += 1
        now = time.monotonic()
        if (rep >= MIN_REPS and now >= deadline) or now >= limit:
            break
    shutil.rmtree(run_root, ignore_errors=True)

    for name, digests in hash_sets.items():
        if len(digests) > 1:
            problems.setdefault("datasets", []).append(f"{name}: sha256 differs between runs")
    if trace:
        counts = {json.dumps(r["counts"], sort_keys=True) for r in traced}
        if len(counts) > 1:
            problems.setdefault("trace", []).append("deterministic counts differ between runs")
    return plain, traced, problems, hash_sets, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "isochron" / "cli.py").is_file():
        print(f"error: no isochron sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())

    workload = WORKLOADS[args.workload](args.seed)
    trace = bool(args.trace)
    plain, traced, problems, hash_sets, attempted, failed = measure(
        workload, args.seed, args.seconds, trace, reference
    )
    correct = failed == 0 and not any(problems.values()) and bool(plain)
    if trace:
        correct = correct and bool(traced)
    for name, issues in problems.items():
        for issue in list(dict.fromkeys(issues))[:5]:
            print(f"FAIL {name}: {issue}")
    if not plain or (trace and not traced):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 0

    wall_s = median_of(plain, "wall_s")
    wall_ref = wall_ref_s(plain)
    derived = {"ms_per_item": 1e3 * wall_s / workload.items, "wall_s": wall_s}
    if trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = wall_ref_s(traced) - wall_ref
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
        derived.update(layers)
    else:
        values = {
            "wall_ref_s": wall_ref,
            "items_per_ref_s": workload.items / wall_ref,
            "setup_s": median_of(plain, "setup_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "ops_ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}

    print(
        f"isochron benchmark: {workload.name}, seed {args.seed}, {len(plain)} untraced"
        + (f" and {len(traced)} traced" if trace else " runs")
        + f", {workload.items} items per run"
    )
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:<22.10g} {m['unit']}")
    if not trace:
        print(f"  {'ops_failed_frac':36s} {failed / attempted:<22.10g} ratio")
        print(f"  {'wall_s (raw, not gated)':36s} {wall_s:<22.10g} s")
        print(f"  {'items_per_s (raw, not gated)':36s} {workload.items / wall_s:<22.10g} 1/s")
    print("ROADMAP baseline (Python 3.10.12) beside this run:")
    for row, base, key, unit in BASELINE[workload.name]:
        here = f"{derived[key]:.4g} {unit}" if key in derived else "not measured here"
        print(f"  {row:64s} {base:>16s} | {here}")
    info = {
        "machine": machine_info(),
        "datasets_sha256": {name: sorted(d)[0] for name, d in sorted(hash_sets.items())},
        "timestamp_pinned": True,
        "lazy_imports": sorted({m for r in plain for m in r["lazy_imports"]}),
        "runs": {"untraced": len(plain), "traced": len(traced)},
        "wall_s_each": [r["wall_s"] for r in plain],
        "setup_s_each": [r["setup_s"] for r in plain],
        "probe_s_each": [r["probe_s"] for r in plain],
    }
    if trace:
        info["spans_per_run"] = traced[0]["spans"]
        info["counts"] = traced[0]["counts"]
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

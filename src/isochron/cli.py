"""Command-line surface: wire configurations to the library and write
reproducible datasets and reports.

Configuration comes from flags and/or a JSON file (``--config``); flags
override file values, and every resolved option is embedded verbatim in
each output file's header together with the tool version, the seed, and a
wall-clock timestamp (pass ``--timestamp`` to pin it when reproducing an
archived dataset byte for byte).  Exit status is 0 exactly when every
requested check passed, 1 when a check failed, 2 on configuration errors,
3 when a computation fails at run time (engine stall, horizon exceeded,
sampler exhaustion), and 130 on interrupt.  On exit 3 and 130 every
declared output file not yet written is flushed with a trailing FAILED
line rather than left missing or silently truncated: the first line of
the error on exit 3, FAILED_MARKER on interrupt.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from functools import cached_property

import numpy as np

from ._version import __version__
from .engine import (
    format_trace_jsonl,
    format_trace_text,
    init_engine,
    network_state,
    validate_state,
)
from .model import DomainError, ModelParams, jump
from .poincare import (
    DEFAULT_MATCH_TOL,
    _check_budget,
    detect_periodicity,
    poincare_map,  # noqa: F401  (bound here for perfbench/tracer.py)
    pulse_signature,
)
from .regions import (
    KINDS,
    g_algebra_deviation,
    intertwining_distances,
    membership,
    region_center,
    region_exists,
    region_oracle,
    region_spec,
    region_volume,
    s_embed,
    sample_interior,
)
from .sweep import (
    DEFAULT_SCAN_MAX_ITER,
    DEFAULT_SCAN_STEP,
    _fmt,
    _write_json,
    dataset_header,
    emit_param_scan_plot,
    emit_phase_scan_plot,
    emit_projection_plot,
    param_scan,
    phase_scan,
    projection_compare,
    stability_probe,
    write_param_scan_csv,
    write_param_scan_json,
    write_phase_scan_csv,
    write_phase_scan_json,
    write_projection_csv,
    write_projection_json,
)

THREADS_ENV = "ISOCHRON_THREADS"

FAILED_MARKER = "# FAILED: interrupted before completion"


class _Run:
    """Resolved options and declared outputs of one invocation.

    Every option funnels through get(), which applies the precedence
    flag > config file > built-in default and records the resolved value,
    so `config` returns the complete effective configuration for the
    output headers.  A command names its output options in outputs()
    before it computes and writes every file through write(); on
    interrupt or a run-time failure, each declared file not yet written
    is flushed with a FAILED line.
    """

    def __init__(self, args: argparse.Namespace, command: str):
        self.args = args
        self.file_config: dict = {}
        path = getattr(args, "config", None)
        if path is not None:
            with open(path) as fh:
                self.file_config = json.load(fh)
            if not isinstance(self.file_config, dict):
                raise DomainError("config file must hold a JSON object")
        self.resolved: dict = {"command": command}
        # Declared outputs not yet written: path -> header lines.
        self._unfinished: dict[str, list[str]] = {}

    def get(self, name: str, default=None, cast=None):
        value = getattr(self.args, name, None)
        if value is None:
            value = self.file_config.get(name, default)
        if cast is not None and value is not None:
            value = _read(name, cast, value)
        self.resolved[name] = value
        return value

    @property
    def config(self) -> dict:
        return dict(self.resolved)

    def params(self) -> ModelParams:
        return ModelParams(
            b=self.get("b", 3.0, float),
            eps=self.get("eps", 0.58, float),
            n=self.get("n", 3, int),
            tau=self.get("tau", 0.58, float),
        )

    def threads(self) -> int:
        value = self.get("threads", cast=int)
        if value is None:
            value = int(os.environ.get(THREADS_ENV, 1))
        if value < 1:
            raise DomainError(f"thread count must be positive, got {value}")
        self.resolved["threads"] = value
        return value

    def seed(self) -> int:
        value = self.get("seed", 0, int)
        if value < 0:
            raise DomainError(f"--seed must be non-negative, got {value}")
        return value

    def budget(self) -> tuple[int, float]:
        """--max-iter and --tol of a cycle detection, checked by the
        detector's own rule."""
        max_iter = self.get("max_iter", DEFAULT_SCAN_MAX_ITER, int)
        tol = self.get("tol", DEFAULT_MATCH_TOL, float)
        _check_budget(max_iter, tol, ("--max-iter", "--tol"))
        return max_iter, tol

    def tol(self, default: float) -> float:
        value = self.get("tol", default, float)
        if not 0.0 <= value < math.inf:
            raise DomainError(f"--tol must be finite and non-negative, got {value}")
        return value

    @cached_property
    def timestamp(self) -> str:
        """The headers' wall-clock stamp, read once so every file of the
        run carries the same one."""
        value = getattr(self.args, "timestamp", None)
        if value is None:
            value = self.file_config.get("timestamp")
        if value is None:
            value = datetime.now(timezone.utc).isoformat(timespec="seconds")
        return value

    def outputs(self, *names: str, seed: int | None = None) -> tuple:
        """Resolve the named output options and declare every given path.

        Call it after the command's other options and before it computes:
        the header is built once, from the options resolved so far.  A plot
        script plots the CSV, so one without --out-csv is rejected, and so
        are two options naming one file, which would overwrite each other.
        Returns the header, then each path (None where not given).
        """
        paths = {name: self.get(name, cast=os.fspath) for name in names}
        if paths.get("plot_script") is not None and paths.get("out_csv") is None:
            raise DomainError("--plot-script needs --out-csv, the CSV it plots")
        seen: dict[str, str] = {}
        for name, path in paths.items():
            if path is not None:
                flag = "--" + name.replace("_", "-")
                other = seen.setdefault(os.path.realpath(path), flag)
                if other != flag:
                    raise DomainError(f"{other} and {flag} name the same file {path}")
        header = dataset_header(self.config, seed=seed, timestamp=self.timestamp)
        for path in paths.values():
            if path is not None:
                self._unfinished[str(path)] = header
        return (header, *paths.values())

    def write(self, path, writer, *args, **kwargs) -> None:
        """Write one output with writer(*args, path=path, **kwargs) and mark
        it finished; a None path (option not given) writes nothing."""
        if path is not None:
            writer(*args, path=path, **kwargs)
            self._unfinished.pop(str(path), None)

    def write_report(self, path, **fields) -> None:
        """A JSON report: the resolved config plus fields."""
        self.write(path, _write_json, timestamp=self.timestamp, config=self.config, **fields)

    def write_or_print(self, path, lines: list[str]) -> None:
        """Write lines to path, or print them when no path was given."""
        if path is None:
            print(*lines, sep="\n")
        self.write(path, _write_lines, lines)

    def flush_failed(self, marker: str = FAILED_MARKER) -> None:
        """Flush every declared output not yet written with the marker line."""
        for path, header_lines in self._unfinished.items():
            try:
                if os.path.exists(path):
                    with open(path, "a") as fh:
                        fh.write(marker + "\n")
                else:
                    _write_lines(header_lines + [marker], path)
            except OSError:  # pragma: no cover - best-effort flush
                pass


# -- shared argument plumbing ---------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with option values (flags override)")
    parser.add_argument("--b", type=float, help="response steepness (default 3.0)")
    parser.add_argument("--eps", type=float, help="coupling strength (default 0.58)")
    parser.add_argument("--n", type=int, help="network size (default 3)")
    parser.add_argument("--tau", type=float, help="pulse delay (default 0.58)")
    parser.add_argument(
        "--threads",
        type=int,
        help=f"worker cap for parallel stages (default ${THREADS_ENV} or 1)",
    )
    parser.add_argument(
        "--timestamp",
        help="wall-clock stamp for output headers (default: current UTC time)",
    )


def _add_state_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state",
        help='initial state as JSON: {"phases": [...], "ftds": [[...], ...]}',
    )
    parser.add_argument(
        "--center",
        choices=[k.lower() for k in KINDS],
        help="start from the named family's center state instead of --state",
    )


def _add_dataset_outputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-csv", help="write the CSV dataset here")
    parser.add_argument("--out-json", help="write the JSON dataset here")
    parser.add_argument(
        "--plot-script", help="write a gnuplot script of the --out-csv dataset here"
    )


def _read(name: str, parse, value):
    """parse(value), or a DomainError naming the option if the value has a
    type that parse cannot read (a config file can hold any JSON type)."""
    try:
        return parse(value)
    except (TypeError, AttributeError) as exc:
        raise DomainError(f"--{name.replace('_', '-')}: cannot read {value!r}: {exc}") from exc


def _parse_kind(value: str) -> str:
    kind = str(value).upper()
    if kind not in KINDS:
        raise DomainError(f"unknown region kind {value!r}; expected one of {KINDS}")
    return kind


def _parse_floats(value) -> tuple[float, ...]:
    """Comma-separated floats, or a list of numbers from a config file."""
    try:
        return tuple(map(float, value.split(",") if isinstance(value, str) else value))
    except ValueError as exc:
        raise DomainError(f"expected comma-separated floats, got {value!r}") from exc


def _parse_grid(value) -> tuple[int, int]:
    """A grid like 100x100, or a pair of counts from a config file."""
    if not isinstance(value, str):
        return tuple(value)
    try:
        left, _, right = value.lower().partition("x")
        counts = (int(left), int(right))
    except ValueError as exc:
        raise DomainError(f"expected a grid like 100x100, got {value!r}") from exc
    if min(counts) < 2:
        raise DomainError(f"grid needs at least 2 cells per axis, got {value!r}")
    return counts


def _resolve_state(run: _Run, params: ModelParams):
    state_json = run.get("state")
    center = run.get("center")
    if state_json is not None and center is not None:
        raise DomainError("--state and --center are mutually exclusive")
    if center is not None:
        kind = _parse_kind(center)
        return s_embed(params, kind, region_center(kind, params.tau))
    if state_json is None:
        raise DomainError("an initial state is required (--state or --center)")
    payload = json.loads(state_json) if isinstance(state_json, str) else state_json
    if not isinstance(payload, dict) or set(payload) != {"phases", "ftds"}:
        raise DomainError('state must be an object with keys "phases" and "ftds"')
    state = _read("state", lambda p: network_state(**p), payload)
    validate_state(params, state)
    return state


def _write_lines(lines: list[str], path) -> None:
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_plot(emit, csv_path, path, **kwargs) -> None:
    """The gnuplot script that emit writes for the CSV at csv_path."""
    _write_lines([emit(str(csv_path), **kwargs)], path)


def _write_trace_jsonl(events, path, config: dict, timestamp: str) -> None:
    meta = json.dumps(
        {"version": __version__, "config": config, "timestamp": timestamp}, sort_keys=True
    )
    _write_lines([meta] + format_trace_jsonl(events).splitlines(), path)


# -- simulate / poincare --------------------------------------------------------------


def _cmd_simulate(run: _Run) -> int:
    params = run.params()
    state = _resolve_state(run, params)
    horizon = run.get("horizon", 3 * params.tau, float)
    header, out_text, out_jsonl = run.outputs("out_text", "out_jsonl")

    events = init_engine(params, state).simulate(horizon)

    text = format_trace_text(events)
    run.write(out_text, _write_lines, header + text.splitlines())
    run.write(
        out_jsonl, _write_trace_jsonl, events, config=run.config, timestamp=run.timestamp
    )
    if out_text is None and out_jsonl is None:
        print(*header, sep="\n")
        print(text, end="")
    print(f"simulated {_fmt(horizon)} time units: {len(events)} events")
    return 0


def _cmd_poincare(run: _Run) -> int:
    params = run.params()
    state = _resolve_state(run, params)
    max_iter, tol = run.budget()
    _, out = run.outputs("out")

    result = detect_periodicity(params, state, max_iter=max_iter, tol=tol)
    periodic = result.periodic
    signature = pulse_signature(params, result) if periodic else None

    if periodic:
        print(
            f"periodic: section period {result.poincare_period}, orbit period "
            f"{_fmt(result.orbit_period)}, transient {result.transient_iters}"
        )
    else:
        print(f"not periodic within {result.iterations} section returns")
    run.write_report(out, periodic=periodic, result=result, signature=signature)
    return 0


# -- region -----------------------------------------------------------------------


def _cmd_region_exists(run: _Run) -> int:
    kind = _parse_kind(run.get("kind", "ir4"))
    params = run.params()
    print("true" if region_exists(params, kind) else "false")
    return 0


def _cmd_region_member(run: _Run) -> int:
    kind = _parse_kind(run.get("kind", "ir4"))
    params = run.params()
    sigma_raw = run.get("sigma")
    if sigma_raw is None:
        raise DomainError("region member requires --sigma")
    sigma = _read("sigma", _parse_floats, sigma_raw)
    spec = region_spec(params, kind)
    if len(sigma) != spec.dim:
        raise DomainError(
            f"{kind} membership needs {spec.dim} coordinates "
            f"({', '.join(spec.labels)}), got {len(sigma)}"
        )
    print("true" if membership(spec, sigma) else "false")
    return 0


def _cmd_region_volume(run: _Run) -> int:
    kind = _parse_kind(run.get("kind", "ir4"))
    params = run.params()
    method = run.get("method", "exact")
    if method not in ("exact", "montecarlo", "both"):
        raise DomainError(f"unknown volume method {method!r}")
    samples = run.get("samples", 1_000_000, int)
    seed = run.seed()
    threads = run.threads()
    _, out = run.outputs("out", seed=seed)
    spec = region_spec(params, kind)

    reports = {}
    if method in ("exact", "both"):
        reports["exact"] = region_volume(spec, method="exact")
        print(f"exact: {_fmt(reports['exact'].volume)}")
    if method in ("montecarlo", "both"):
        reports["montecarlo"] = region_volume(
            spec, method="montecarlo", samples=samples, seed=seed, threads=threads
        )
        mc = reports["montecarlo"]
        print(f"montecarlo: {_fmt(mc.volume)} stderr: {_fmt(mc.stderr)}")

    ok = True
    if method == "both":
        diff = abs(reports["exact"].volume - reports["montecarlo"].volume)
        bound = 3 * reports["montecarlo"].stderr
        ok = bool(diff <= bound)
        print(
            f"check: {'PASS' if ok else 'FAIL'} "
            f"(|exact - montecarlo| = {_fmt(diff)}, 3*stderr = {_fmt(bound)})"
        )
    run.write_report(out, seed=seed, reports=reports, ok=ok)
    return 0 if ok else 1


def _cmd_region_sample(run: _Run) -> int:
    kind = _parse_kind(run.get("kind", "ir4"))
    params = run.params()
    n = run.get("samples", 100, int)
    seed = run.seed()
    header, out = run.outputs("out", seed=seed)
    spec = region_spec(params, kind)

    points = sample_interior(params, kind, n, seed=seed)
    lines = header + [",".join(spec.labels)]
    lines += [",".join(_fmt(v) for v in row) for row in points]
    run.write_or_print(out, lines)
    print(f"sampled {n} interior points of {kind}")
    return 0


def _cmd_region_project(run: _Run) -> int:
    params = run.params()
    n = run.get("samples", 1000, int)
    seed = run.seed()
    compare = bool(run.get("compare", False))
    step = run.get("step", 0.05, float)
    tol = run.tol(1e-6)
    threads = run.threads()
    header, out_csv, out_json, plot_script = run.outputs(
        "out_csv", "out_json", "plot_script", seed=seed
    )
    if out_json is not None and not compare:
        raise DomainError("--out-json needs --compare: only the overlay has a JSON report")

    if compare:
        report = projection_compare(
            params, n_samples=n, seed=seed, step=step, tol=tol, workers=threads
        )
        run.write(out_csv, write_projection_csv, report, timestamp=run.timestamp)
        run.write(out_json, write_projection_json, report, timestamp=run.timestamp)
        print(
            f"scan orbits: {report.numeric_orbit_count} "
            f"({report.mirror_orbit_count} mirror-imaged, "
            f"{report.unidentified_period4_count} unidentified), "
            f"seeded orbits: {report.seeded_orbit_count}"
        )
        print(f"containment: {'PASS' if report.contained else 'FAIL'}")
        ok = report.contained
    else:
        sigmas = sample_interior(params, "IR4", n, seed=seed)
        lines = header + ["set,theta1,theta2"]
        lines += [
            f"analytic,{_fmt(jump(params, float(s[0]), params.eps_hat))},{_fmt(float(s[1]))}"
            for s in sigmas
        ]
        run.write_or_print(out_csv, lines)
        print(f"projected {n} family points to the phase plane")
        ok = True
    run.write(plot_script, _write_plot, emit_projection_plot, out_csv)
    return 0 if ok else 1


# -- scan -------------------------------------------------------------------------


def _cmd_scan_phases(run: _Run) -> int:
    params = run.params()
    step = run.get("step", DEFAULT_SCAN_STEP, float)
    max_iter, tol = run.budget()
    threads = run.threads()
    _, out_csv, out_json, plot_script = run.outputs("out_csv", "out_json", "plot_script")

    result = phase_scan(params, step=step, max_iter=max_iter, tol=tol, workers=threads)

    run.write(out_csv, write_phase_scan_csv, result, timestamp=run.timestamp)
    run.write(out_json, write_phase_scan_json, result, timestamp=run.timestamp)
    run.write(plot_script, _write_plot, emit_phase_scan_plot, out_csv)

    census: dict[int, int] = {}
    for record in result.records:
        if record.poincare_period is not None:
            census[record.poincare_period] = census.get(record.poincare_period, 0) + 1
    summary = ", ".join(f"{k}: {census[k]}" for k in sorted(census))
    print(f"{len(result.records)} cells; section periods {{{summary}}}")
    if result.not_periodic_count():
        print(f"not periodic within budget: {result.not_periodic_count()} cells")
    return 0


def _cmd_scan_params(run: _Run) -> int:
    b = run.get("b", 3.0, float)
    n = run.get("n", 3, int)
    grid_raw = run.get("grid", "100x100")
    n_eps, n_tau = _read("grid", _parse_grid, grid_raw)
    kind = _parse_kind(run.get("kind", "ir4"))
    volume_raw = run.get("volume_kinds", "") or ""
    parts = _read("volume_kinds", lambda v: v.split(","), volume_raw)
    volume_kinds = tuple(_parse_kind(part) for part in parts if part)
    volume_method = run.get("volume_method", "exact")
    volume_samples = run.get("volume_samples", 100_000, int)
    seed = run.seed()
    threads = run.threads()
    _, out_csv, out_json, plot_script = run.outputs(
        "out_csv", "out_json", "plot_script", seed=seed
    )

    eps_values = [i / n_eps for i in range(1, n_eps + 1)]
    tau_values = [j / n_tau for j in range(1, n_tau + 1)]
    result = param_scan(
        eps_values,
        tau_values,
        b=b,
        n=n,
        volume_kinds=volume_kinds,
        volume_method=volume_method,
        volume_samples=volume_samples,
        seed=seed,
        workers=threads,
    )

    run.write(out_csv, write_param_scan_csv, result, timestamp=run.timestamp)
    run.write(out_json, write_param_scan_json, result, timestamp=run.timestamp)
    run.write(plot_script, _write_plot, emit_param_scan_plot, out_csv, kind=kind)

    counts = {k: sum(r.exists[k] for r in result.records) for k in KINDS}
    total = len(result.records)
    print(
        f"{total} cells; nonempty: "
        + ", ".join(f"{k}: {counts[k]}" for k in KINDS)
    )
    return 0


# -- verify -----------------------------------------------------------------------


def _cmd_verify(run: _Run) -> int:
    suite = run.get("suite", "ir4")
    params = run.params()
    n = run.get("samples", 1000, int)
    if n < 1:
        raise DomainError(f"--samples must be at least 1, got {n}")
    seed = run.seed()
    tol = run.tol(1e-9)
    _, out = run.outputs("out", seed=seed)
    tau = params.tau

    kinds = KINDS if suite == "all" else (_parse_kind(suite),)
    checks: list[tuple[str, bool, str]] = []
    for kind in kinds:
        exists = region_exists(params, kind)
        checks.append(
            (
                f"{kind.lower()}-existence",
                exists,
                f"eps={_fmt(params.eps)} tau={_fmt(params.tau)}",
            )
        )
        if not exists:
            continue
        if kind == "IR4":
            sigmas = sample_interior(params, "IR4", n, seed=seed)
            worst = max(intertwining_distances(params, sigmas))
            detail = f"max deviation {_fmt(worst)} over {n} samples (tol {_fmt(tol)})"
            checks.append(("intertwining", worst <= tol, detail))
            points = np.random.default_rng(seed).uniform(0.0, tau, size=(max(n, 1000), 3))
            worst = g_algebra_deviation(tau, points, np.linspace(-tau / 8, tau / 8, 25))
            detail = f"max deviation {_fmt(worst)} over {len(points)} samples (tol 1e-12)"
            checks.append(("return-map-algebra", worst <= 1e-12, detail))
            probe = stability_probe(
                params, region_center("IR4", tau), n_trials=min(n, 100), seed=seed
            )
            detail = f"max distance {_fmt(probe.max_distance)}, {probe.n_refused} refused"
            checks.append(("stability", probe.ok, f"{probe.n_run} trials converged ({detail})"))
        oracle = region_oracle(params, kind, n_samples=min(n, 100), seed=seed)
        counts = ", ".join(f"{k}: {v}" for k, v in sorted(oracle.poincare_period_counts.items()))
        detail = f"section periods {{{counts}}}, {len(oracle.failures)} failures"
        if oracle.pair_synchronized is not None:
            detail += f", locked pair {'kept' if oracle.pair_synchronized else 'broken'}"
        checks.append((f"{kind.lower()}-oracle", oracle.ok, detail))

    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    all_ok = all(ok for _, ok, _ in checks)
    print(f"verify: {'PASS' if all_ok else 'FAIL'} ({len(checks)} checks)")

    run.write_report(
        out,
        seed=seed,
        checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        ok=all_ok,
    )
    return 0 if all_ok else 1


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isochron",
        description=(
            "Exact event-driven simulation and region analysis for delayed "
            "all-to-all pulse-coupled oscillator networks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"isochron {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the event engine and write traces")
    _add_common(p)
    _add_state_options(p)
    p.add_argument("--horizon", type=float, help="simulated time span (default 3*tau)")
    p.add_argument("--out-text", dest="out_text", help="write a text trace here")
    p.add_argument("--out-jsonl", dest="out_jsonl", help="write a JSON-lines trace here")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("poincare", help="detect periodicity through the section map")
    _add_common(p)
    _add_state_options(p)
    p.add_argument("--max-iter", dest="max_iter", type=int, help="section-return budget")
    p.add_argument("--tol", type=float, help="state-match tolerance (default 1e-9)")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(handler=_cmd_poincare)

    region = sub.add_parser("region", help="query and export the analytic families")
    region_sub = region.add_subparsers(dest="subcommand", required=True)

    p = region_sub.add_parser("exists", help="is the family nonempty here?")
    _add_common(p)
    p.add_argument("--kind", help="ir3, ir4, or ir5 (default ir4)")
    p.set_defaults(handler=_cmd_region_exists)

    p = region_sub.add_parser("member", help="does sigma satisfy the constraints?")
    _add_common(p)
    p.add_argument("--kind", help="ir3, ir4, or ir5 (default ir4)")
    p.add_argument("--sigma", help="comma-separated coordinates")
    p.set_defaults(handler=_cmd_region_member)

    p = region_sub.add_parser("volume", help="measure the family's volume")
    _add_common(p)
    p.add_argument("--kind", help="ir3, ir4, or ir5 (default ir4)")
    p.add_argument(
        "--method",
        help="exact, montecarlo, or both (both cross-checks within 3 stderr)",
    )
    p.add_argument("--samples", type=int, help="Monte Carlo budget (default 1000000)")
    p.add_argument("--seed", type=int, help="Monte Carlo seed (default 0)")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(handler=_cmd_region_volume)

    p = region_sub.add_parser("sample", help="draw uniform interior points")
    _add_common(p)
    p.add_argument("--kind", help="ir3, ir4, or ir5 (default ir4)")
    p.add_argument("--samples", type=int, help="number of points (default 100)")
    p.add_argument("--seed", type=int, help="sampler seed (default 0)")
    p.add_argument("--out", help="write the CSV here (default: stdout)")
    p.set_defaults(handler=_cmd_region_sample)

    p = region_sub.add_parser(
        "project", help="emit the period-4 family's phase-plane image"
    )
    _add_common(p)
    p.add_argument("--samples", type=int, help="number of points (default 1000)")
    p.add_argument("--seed", type=int, help="sampler seed (default 0)")
    p.add_argument(
        "--compare",
        action="store_const",
        const=True,
        help="overlay scan-found and seeded orbits and check containment",
    )
    p.add_argument("--step", type=float, help="scan grid step for --compare")
    p.add_argument("--tol", type=float, help="containment tolerance for --compare")
    _add_dataset_outputs(p)
    p.set_defaults(handler=_cmd_region_project)

    scan = sub.add_parser("scan", help="produce sweep datasets")
    scan_sub = scan.add_subparsers(dest="subcommand", required=True)

    p = scan_sub.add_parser("phases", help="classify a grid of initial phases")
    _add_common(p)
    p.add_argument("--step", type=float, help="grid step (default 0.01)")
    p.add_argument("--max-iter", dest="max_iter", type=int, help="section-return budget")
    p.add_argument("--tol", type=float, help="state-match tolerance (default 1e-9)")
    _add_dataset_outputs(p)
    p.set_defaults(handler=_cmd_scan_phases)

    p = scan_sub.add_parser("params", help="map family existence over (eps, tau)")
    _add_common(p)
    p.add_argument("--grid", help="grid size as KxM over (0,1]^2 (default 100x100)")
    p.add_argument("--kind", help="family highlighted by the plot script (default ir4)")
    p.add_argument(
        "--volume-kinds",
        dest="volume_kinds",
        help="comma-separated kinds whose volume to record (default none)",
    )
    p.add_argument(
        "--volume-method", dest="volume_method", help="exact or montecarlo"
    )
    p.add_argument(
        "--volume-samples",
        dest="volume_samples",
        type=int,
        help="Monte Carlo budget per cell",
    )
    p.add_argument("--seed", type=int, help="root seed (default 0)")
    _add_dataset_outputs(p)
    p.set_defaults(handler=_cmd_scan_params)

    p = sub.add_parser("verify", help="run the oracle suite and report pass/fail")
    _add_common(p)
    p.add_argument("--suite", help="ir3, ir4, ir5, or all (default ir4)")
    p.add_argument("--samples", type=int, help="sample budget (default 1000)")
    p.add_argument("--seed", type=int, help="sampler seed (default 0)")
    p.add_argument("--tol", type=float, help="intertwining tolerance (default 1e-9)")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    if getattr(args, "subcommand", None):
        command = f"{command} {args.subcommand}"
    run = None
    try:
        run = _Run(args, command)
        return args.handler(run)
    except KeyboardInterrupt:
        if run is not None:
            run.flush_failed()
        print("error: interrupted", file=sys.stderr)
        return 130
    except (ValueError, OSError) as exc:
        # ValueError covers DomainError, StateError, SectionError and
        # json.JSONDecodeError.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        if run is not None:
            run.flush_failed("# FAILED: " + str(exc).partition("\n")[0])
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

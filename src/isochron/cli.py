"""Command-line surface: wire configurations to the library and write
reproducible datasets and reports.

Configuration comes from flags and/or a JSON file (``--config``); flags
override file values, and every resolved option is embedded verbatim in
each output file's header together with the tool version, the seed, and a
wall-clock timestamp (pass ``--timestamp`` to pin it when reproducing an
archived dataset byte for byte).  Exit status is 0 exactly when every
requested check passed, 1 when a check failed, 2 on configuration errors,
3 when a computation fails at run time (engine stall, horizon exceeded,
sampler exhaustion), and 130 on interrupt — in which case any declared
output file is flushed with a trailing FAILED marker rather than left
silently truncated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

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
    detect_periodicity,
    poincare_map,
    pulse_signature,
    state_distance,
)
from .regions import (
    KINDS,
    g_algebra,
    g_map,
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
    """Resolved options for one invocation.

    Every option funnels through get(), which applies the precedence
    flag > config file > built-in default and records the resolved value,
    so `config` returns the complete effective configuration for the
    output headers.  Output files are declared before long computations
    begin; on interrupt, declared-but-unfinished files are flushed with a
    FAILED marker.
    """

    def __init__(self, args: argparse.Namespace, command: str):
        self.args = args
        self.command = command
        self.file_config: dict = {}
        path = getattr(args, "config", None)
        if path is not None:
            with open(path) as fh:
                self.file_config = json.load(fh)
            if not isinstance(self.file_config, dict):
                raise DomainError("config file must hold a JSON object")
        self.resolved: dict = {"command": command}
        self._declared: list[tuple[str, list[str]]] = []
        self._done: set[str] = set()

    def get(self, name: str, default=None, cast=None):
        value = getattr(self.args, name, None)
        if value is None:
            value = self.file_config.get(name, default)
        if cast is not None and value is not None:
            value = cast(value)
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
        value = self.get("threads")
        if value is None:
            value = os.environ.get(THREADS_ENV, 1)
        value = int(value)
        if value < 1:
            raise DomainError(f"thread count must be positive, got {value}")
        self.resolved["threads"] = value
        return value

    def timestamp(self) -> str:
        value = getattr(self.args, "timestamp", None)
        if value is None:
            value = self.file_config.get("timestamp")
        if value is None:
            value = datetime.now(timezone.utc).isoformat(timespec="seconds")
        return value

    def declare_output(self, path: str | None, header_lines: list[str]) -> None:
        if path is not None:
            self._declared.append((str(path), header_lines))

    def finish_output(self, path: str | None) -> None:
        if path is not None:
            self._done.add(str(path))

    def flush_failed(self) -> None:
        """Flush every declared-but-unfinished output with a FAILED marker."""
        for path, header_lines in self._declared:
            if path in self._done:
                continue
            try:
                if os.path.exists(path):
                    with open(path, "a") as fh:
                        fh.write(FAILED_MARKER + "\n")
                else:
                    with open(path, "w") as fh:
                        for line in header_lines:
                            fh.write(line + "\n")
                        fh.write(FAILED_MARKER + "\n")
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


def _parse_kind(value: str) -> str:
    kind = value.upper()
    if kind not in KINDS:
        raise DomainError(f"unknown region kind {value!r}; expected one of {KINDS}")
    return kind


def _parse_floats(value: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in value.split(","))
    except ValueError as exc:
        raise DomainError(f"expected comma-separated floats, got {value!r}") from exc


def _parse_grid(value: str) -> tuple[int, int]:
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
    state = network_state(
        phases=tuple(float(p) for p in payload["phases"]),
        ftds=tuple(tuple(float(t) for t in row) for row in payload["ftds"]),
    )
    validate_state(params, state)
    return state


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


# -- simulate / poincare --------------------------------------------------------------


def _cmd_simulate(run: _Run) -> int:
    params = run.params()
    state = _resolve_state(run, params)
    horizon = run.get("horizon", 3 * params.tau, float)
    out_text = run.get("out_text")
    out_jsonl = run.get("out_jsonl")
    timestamp = run.timestamp()
    header = dataset_header(run.config, timestamp=timestamp)
    run.declare_output(out_text, header)
    run.declare_output(out_jsonl, header)

    events = init_engine(params, state).simulate(horizon)

    text = format_trace_text(events)
    if out_text is not None:
        _write_lines(out_text, header + text.splitlines())
        run.finish_output(out_text)
    if out_jsonl is not None:
        meta = json.dumps(
            {"version": __version__, "config": run.config, "timestamp": timestamp},
            sort_keys=True,
        )
        _write_lines(out_jsonl, [meta] + format_trace_jsonl(events).splitlines())
        run.finish_output(out_jsonl)
    if out_text is None and out_jsonl is None:
        for line in header:
            print(line)
        print(text, end="")
    print(f"simulated {_fmt(horizon)} time units: {len(events)} events")
    return 0


def _cmd_poincare(run: _Run) -> int:
    params = run.params()
    state = _resolve_state(run, params)
    max_iter = run.get("max_iter", DEFAULT_SCAN_MAX_ITER, int)
    tol = run.get("tol", 1e-9, float)
    out = run.get("out")
    timestamp = run.timestamp()
    run.declare_output(out, dataset_header(run.config, timestamp=timestamp))

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
    if out is not None:
        _write_json(
            out,
            timestamp,
            config=run.config,
            periodic=periodic,
            result=result,
            signature=signature,
        )
        run.finish_output(out)
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
    sigma = (
        _parse_floats(sigma_raw) if isinstance(sigma_raw, str) else tuple(sigma_raw)
    )
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
    seed = run.get("seed", 0, int)
    threads = run.threads()
    out = run.get("out")
    timestamp = run.timestamp()
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
    if out is not None:
        _write_json(out, timestamp, config=run.config, seed=seed, reports=reports, ok=ok)
        run.finish_output(out)
    return 0 if ok else 1


def _cmd_region_sample(run: _Run) -> int:
    kind = _parse_kind(run.get("kind", "ir4"))
    params = run.params()
    n = run.get("samples", 100, int)
    seed = run.get("seed", 0, int)
    out = run.get("out")
    timestamp = run.timestamp()
    spec = region_spec(params, kind)
    header = dataset_header(run.config, seed=seed, timestamp=timestamp)
    run.declare_output(out, header)

    points = sample_interior(params, kind, n, seed=seed)
    lines = header + [",".join(spec.labels)]
    lines += [",".join(_fmt(v) for v in row) for row in points]
    if out is not None:
        _write_lines(out, lines)
        run.finish_output(out)
    else:
        for line in lines:
            print(line)
    print(f"sampled {n} interior points of {kind}")
    return 0


def _cmd_region_project(run: _Run) -> int:
    params = run.params()
    n = run.get("samples", 1000, int)
    seed = run.get("seed", 0, int)
    compare = bool(run.get("compare", False))
    step = run.get("step", 0.05, float)
    tol = run.get("tol", 1e-6, float)
    threads = run.threads()
    out_csv = run.get("out_csv")
    out_json = run.get("out_json")
    plot_script = run.get("plot_script")
    timestamp = run.timestamp()
    header = dataset_header(run.config, seed=seed, timestamp=timestamp)
    run.declare_output(out_csv, header)
    run.declare_output(out_json, header)

    if compare:
        report = projection_compare(
            params, n_samples=n, seed=seed, step=step, tol=tol, workers=threads
        )
        if out_csv is not None:
            write_projection_csv(report, out_csv, timestamp=timestamp)
            run.finish_output(out_csv)
        if out_json is not None:
            write_projection_json(report, out_json, timestamp=timestamp)
            run.finish_output(out_json)
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
        if out_csv is not None:
            _write_lines(out_csv, lines)
            run.finish_output(out_csv)
        else:
            for line in lines:
                print(line)
        print(f"projected {n} family points to the phase plane")
        ok = True
    if plot_script is not None and out_csv is not None:
        _write_lines(plot_script, [emit_projection_plot(str(out_csv))])
        run.finish_output(plot_script)
    return 0 if ok else 1


# -- scan -------------------------------------------------------------------------


def _cmd_scan_phases(run: _Run) -> int:
    params = run.params()
    step = run.get("step", DEFAULT_SCAN_STEP, float)
    max_iter = run.get("max_iter", DEFAULT_SCAN_MAX_ITER, int)
    tol = run.get("tol", 1e-9, float)
    threads = run.threads()
    out_csv = run.get("out_csv")
    out_json = run.get("out_json")
    plot_script = run.get("plot_script")
    timestamp = run.timestamp()
    header = dataset_header(run.config, timestamp=timestamp)
    run.declare_output(out_csv, header)
    run.declare_output(out_json, header)

    result = phase_scan(params, step=step, max_iter=max_iter, tol=tol, workers=threads)

    if out_csv is not None:
        write_phase_scan_csv(result, out_csv, timestamp=timestamp)
        run.finish_output(out_csv)
    if out_json is not None:
        write_phase_scan_json(result, out_json, timestamp=timestamp)
        run.finish_output(out_json)
    if plot_script is not None and out_csv is not None:
        _write_lines(plot_script, [emit_phase_scan_plot(str(out_csv))])
        run.finish_output(plot_script)

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
    n_eps, n_tau = (
        _parse_grid(grid_raw) if isinstance(grid_raw, str) else tuple(grid_raw)
    )
    kind = _parse_kind(run.get("kind", "ir4"))
    volume_raw = run.get("volume_kinds", "")
    volume_kinds = tuple(
        _parse_kind(part)
        for part in (volume_raw.split(",") if volume_raw else [])
        if part
    )
    volume_method = run.get("volume_method", "exact")
    volume_samples = run.get("volume_samples", 100_000, int)
    seed = run.get("seed", 0, int)
    threads = run.threads()
    out_csv = run.get("out_csv")
    out_json = run.get("out_json")
    plot_script = run.get("plot_script")
    timestamp = run.timestamp()
    header = dataset_header(run.config, seed=seed, timestamp=timestamp)
    run.declare_output(out_csv, header)
    run.declare_output(out_json, header)

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

    if out_csv is not None:
        write_param_scan_csv(result, out_csv, timestamp=timestamp)
        run.finish_output(out_csv)
    if out_json is not None:
        write_param_scan_json(result, out_json, timestamp=timestamp)
        run.finish_output(out_json)
    if plot_script is not None and out_csv is not None:
        _write_lines(plot_script, [emit_param_scan_plot(str(out_csv), kind=kind)])
        run.finish_output(plot_script)

    counts = {k: sum(r.exists[k] for r in result.records) for k in KINDS}
    total = len(result.records)
    print(
        f"{total} cells; nonempty: "
        + ", ".join(f"{k}: {counts[k]}" for k in KINDS)
    )
    return 0


# -- verify -----------------------------------------------------------------------


def _check_intertwining(params: ModelParams, n: int, seed: int, tol: float):
    sigmas = sample_interior(params, "IR4", n, seed=seed)
    worst = 0.0
    for row in sigmas:
        sigma = tuple(float(v) for v in row)
        landed, _ = poincare_map(params, s_embed(params, "IR4", sigma))
        target = s_embed(params, "IR4", g_map(sigma, params.tau))
        worst = max(worst, state_distance(landed, target))
    return worst <= tol, f"max deviation {_fmt(worst)} over {n} samples (tol {_fmt(tol)})"


def _check_g_algebra(params: ModelParams, n: int, seed: int):
    tau = params.tau
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, tau, size=(n, 3))
    worst = 0.0
    for row in points:
        sigma = tuple(float(v) for v in row)
        cur = sigma
        for _ in range(4):
            cur = g_map(cur, tau)
        worst = max(worst, max(abs(a - b) for a, b in zip(cur, sigma)))
    algebra = g_algebra(tau)
    center = algebra.center
    worst = max(worst, max(abs(a - b) for a, b in zip(g_map(center, tau), center)))
    for t in np.linspace(-tau / 8, tau / 8, 25):
        point = tuple(c + float(t) * d for c, d in zip(center, algebra.line_direction))
        twice = g_map(g_map(point, tau), tau)
        worst = max(worst, max(abs(a - b) for a, b in zip(twice, point)))
    return worst <= 1e-12, f"max deviation {_fmt(worst)} over {n} samples (tol 1e-12)"


def _check_stability(params: ModelParams, n: int, seed: int):
    report = stability_probe(
        params, region_center("IR4", params.tau), n_trials=n, seed=seed
    )
    detail = (
        f"{report.n_run} trials converged (max distance {_fmt(report.max_distance)}, "
        f"{report.n_refused} refused)"
    )
    return report.ok, detail


def _check_oracle(params: ModelParams, kind: str, n: int, seed: int):
    report = region_oracle(params, kind, n_samples=n, seed=seed)
    counts = ", ".join(
        f"{k}: {v}" for k, v in sorted(report.poincare_period_counts.items())
    )
    detail = f"section periods {{{counts}}}, {len(report.failures)} failures"
    if report.pair_synchronized is not None:
        detail += f", locked pair {'kept' if report.pair_synchronized else 'broken'}"
    return report.ok, detail


def _cmd_verify(run: _Run) -> int:
    suite = run.get("suite", "ir4")
    params = run.params()
    n = run.get("samples", 1000, int)
    seed = run.get("seed", 0, int)
    tol = run.get("tol", 1e-9, float)
    out = run.get("out")
    timestamp = run.timestamp()

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
            ok, detail = _check_intertwining(params, n, seed, tol)
            checks.append(("intertwining", ok, detail))
            ok, detail = _check_g_algebra(params, max(n, 1000), seed)
            checks.append(("return-map-algebra", ok, detail))
            ok, detail = _check_stability(params, min(n, 100), seed)
            checks.append(("stability", ok, detail))
        ok, detail = _check_oracle(params, kind, min(n, 100), seed)
        checks.append((f"{kind.lower()}-oracle", ok, detail))

    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    all_ok = all(ok for _, ok, _ in checks)
    print(f"verify: {'PASS' if all_ok else 'FAIL'} ({len(checks)} checks)")

    if out is not None:
        _write_json(
            out,
            timestamp,
            config=run.config,
            seed=seed,
            checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
            ok=all_ok,
        )
        run.finish_output(out)
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
    p.add_argument("--out-csv", dest="out_csv", help="write the CSV here")
    p.add_argument("--out-json", dest="out_json", help="write the JSON report here")
    p.add_argument(
        "--plot-script", dest="plot_script", help="write a gnuplot script here"
    )
    p.set_defaults(handler=_cmd_region_project)

    scan = sub.add_parser("scan", help="produce sweep datasets")
    scan_sub = scan.add_subparsers(dest="subcommand", required=True)

    p = scan_sub.add_parser("phases", help="classify a grid of initial phases")
    _add_common(p)
    p.add_argument("--step", type=float, help="grid step (default 0.01)")
    p.add_argument("--max-iter", dest="max_iter", type=int, help="section-return budget")
    p.add_argument("--tol", type=float, help="state-match tolerance (default 1e-9)")
    p.add_argument("--out-csv", dest="out_csv", help="write the CSV dataset here")
    p.add_argument("--out-json", dest="out_json", help="write the JSON dataset here")
    p.add_argument(
        "--plot-script", dest="plot_script", help="write a gnuplot script here"
    )
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
    p.add_argument("--out-csv", dest="out_csv", help="write the CSV dataset here")
    p.add_argument("--out-json", dest="out_json", help="write the JSON dataset here")
    p.add_argument(
        "--plot-script", dest="plot_script", help="write a gnuplot script here"
    )
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
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: wire configurations to the library and write
reproducible datasets and reports.

Configuration comes from flags and/or a JSON file (``--config``); flags
override file values, and every resolved option is embedded verbatim in
each output file's header together with the tool version, the seed, and a
wall-clock timestamp (pass ``--timestamp`` to pin it when reproducing an
archived dataset byte for byte).  Exit status is 0 exactly when every
requested check passed, 1 when a check failed, 2 on configuration errors
(an empty region family among them), 3 when a computation fails at run
time (engine stall, horizon exceeded, sampler exhaustion), and 130 on
interrupt.  On exit 3 and 130 every
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
    NetworkState,
    format_trace_jsonl,
    format_trace_text,
    init_engine,
    network_state,
    validate_state,
)
from .model import DomainError, ModelParams
from .poincare import (
    DEFAULT_MATCH_TOL,
    _check_budget,
    detect_periodicity,
    poincare_map,  # noqa: F401  (bound here for perfbench/tracer.py)
    pulse_signature,
    require_section_state,
)
from .regions import (
    KINDS,
    _ir4_phase_plane,
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
    MAX_GRID_CELLS,
    _fmt,
    _grid_count,
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

    def given(self, name: str) -> bool:
        """Whether the flag or the config file gives name a value; a JSON
        null gives none."""
        return getattr(self.args, name, None) is not None or self.file_config.get(name) is not None

    def get(self, name: str, default=None, cast=None):
        value = getattr(self.args, name, None)
        if value is None:
            value = self.file_config.get(name)
        if value is None:
            value = default
        if cast is not None and value is not None:
            value = _read(name, cast, value)
        self.resolved[name] = value
        return value

    @property
    def config(self) -> dict:
        return dict(self.resolved)

    def params(self, three: bool = False) -> ModelParams:
        """The model parameters.  A command whose starts are three-oscillator
        states (three=True) refuses any other --n."""
        params = ModelParams(
            b=self.get("b", 3.0, _parse_float),
            eps=self.get("eps", 0.58, _parse_float),
            n=self.get("n", 3, _parse_int),
            tau=self.get("tau", 0.58, _parse_float),
        )
        if three and params.n != 3:
            raise DomainError(
                f"--n must be 3: {self.resolved['command']} runs three oscillators, got {params.n}"
            )
        return params

    def threads(self) -> int:
        value = self.get("threads", cast=_parse_int)
        if value is None:
            raw = os.environ.get(THREADS_ENV, "1")
            try:
                value = int(raw)
            except ValueError:
                raise DomainError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
        if value < 1:
            raise DomainError(f"thread count must be positive, got {value}")
        self.resolved["threads"] = value
        return value

    def seed(self) -> int:
        value = self.get("seed", 0, _parse_int)
        if value < 0:
            raise DomainError(f"--seed must be non-negative, got {value}")
        return value

    def budget(self) -> tuple[int, float]:
        """--max-iter and --tol of a cycle detection, checked by the
        detector's own rule."""
        max_iter = self.get("max_iter", DEFAULT_SCAN_MAX_ITER, _parse_int)
        tol = self.get("tol", DEFAULT_MATCH_TOL, _parse_float)
        _check_budget(max_iter, tol, ("--max-iter", "--tol"))
        return max_iter, tol

    def samples(self, default: int, name: str = "samples", least: int = 1) -> int:
        """A sample budget, refused below least whether or not the run draws."""
        value = self.get(name, default, _parse_int)
        if value < least:
            raise DomainError(f"--{name.replace('_', '-')} must be at least {least}, got {value}")
        return value

    def step(self, default: float) -> float:
        """A scan grid step, checked by the grid's own rule before any
        output is declared."""
        value = self.get("step", default, _parse_float)
        _grid_count(value, "--step")
        return value

    def tol(self, default: float) -> float:
        value = self.get("tol", default, _parse_float)
        if not 0.0 <= value < math.inf:
            raise DomainError(f"--tol must be finite and non-negative, got {value}")
        return value

    @cached_property
    def timestamp(self) -> str:
        """The headers' wall-clock stamp, read once so every file of the
        run carries the same one; it must hold no line break."""
        value = getattr(self.args, "timestamp", None)
        if value is None:
            value = self.file_config.get("timestamp")
            if value is not None:
                value = _read("timestamp", _parse_text, value)
        if value is None:
            value = datetime.now(timezone.utc).isoformat(timespec="seconds")
        if "\n" in value or "\r" in value:
            # A line break would end the header's comment line.
            raise DomainError(f"--timestamp must be one line, got {value!r}")
        return value

    def outputs(self, *names: str, seed: int | None = None) -> tuple:
        """Resolve the named output options and declare every given path.

        Call it after the command's other options and before it computes:
        the header is built once, from the options resolved so far.  A plot
        script plots the CSV, so one without --out-csv is rejected, and so
        are two options naming one file, which would overwrite each other.
        The script names the CSV in a gnuplot string, which cannot hold a
        line break.  Returns the header, then each path (None where not
        given).
        """
        paths = {name: self.get(name, cast=os.fspath) for name in names}
        if paths.get("plot_script") is not None:
            csv_path = paths.get("out_csv")
            if csv_path is None:
                raise DomainError("--plot-script needs --out-csv, the CSV it plots")
            if "\n" in csv_path or "\r" in csv_path:
                raise DomainError(f"--out-csv must be one line to be plotted, got {csv_path!r}")
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
    """parse(value), or a DomainError naming the option if parse cannot
    read the value (a config file can hold any JSON type)."""
    try:
        return parse(value)
    except (TypeError, AttributeError, ValueError) as exc:
        raise DomainError(f"--{name.replace('_', '-')}: cannot read {value!r}: {exc}") from exc


def _parse_int(value) -> int:
    """An integer, which a config file must give as a JSON integer (not a
    boolean, nor a float with a zero fraction)."""
    if type(value) is not int:
        raise TypeError("expected an integer")
    return value


def _parse_float(value) -> float:
    """A number, which a config file must give as a JSON number (not a
    boolean)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    try:
        return float(value)
    except OverflowError:  # an integer past the double range
        raise TypeError("out of the double range") from None


def _parse_bool(value) -> bool:
    """An on/off value, which a config file must give as a JSON boolean."""
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _parse_text(value) -> str:
    """A value that a config file must give as a JSON string."""
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _parse_kind(value) -> str:
    """A region family, named in any case."""
    kind = str(value).upper()
    if kind not in KINDS:
        raise ValueError(f"expected one of {', '.join(k.lower() for k in KINDS)}")
    return kind


def _parse_suite(value) -> tuple[str, ...]:
    """The kinds a verify suite checks: one kind, or all, in any case."""
    kind = str(value).upper()
    if kind != "ALL" and kind not in KINDS:
        raise ValueError(f"expected one of {', '.join(k.lower() for k in KINDS)} or all")
    return KINDS if kind == "ALL" else (kind,)


def _parse_floats(value) -> tuple[float, ...]:
    """Comma-separated floats, or a list of numbers from a config file."""
    if isinstance(value, str):
        return tuple(map(float, value.split(",")))
    return tuple(map(_parse_float, value))


def _parse_grid(value) -> tuple[int, int]:
    """A grid like 100x100, or a pair of integer counts from a config
    file; each count at least 2, and at most MAX_GRID_CELLS cells."""
    if isinstance(value, str):
        try:
            left, _, right = value.lower().partition("x")
            counts = (int(left), int(right))
        except ValueError:
            raise ValueError("expected a grid like 100x100") from None
    else:
        counts = tuple(value)
        if len(counts) != 2 or any(type(c) is not int for c in counts):
            raise TypeError("expected two integers")
    if min(counts) < 2:
        raise ValueError("needs at least 2 cells per axis")
    if counts[0] * counts[1] > MAX_GRID_CELLS:
        raise ValueError(f"a scan grid holds at most {MAX_GRID_CELLS} cells")
    return counts


def _resolve_state(run: _Run, params: ModelParams, section: bool = False):
    """The start: the --center family's center state, or the --state
    object checked by validate_state, or by require_section_state where
    the start must be a section state (section=True); a refusal of the
    object names --state."""
    state_json = run.get("state")
    center = run.get("center")
    if state_json is not None and center is not None:
        raise DomainError("--state and --center are mutually exclusive")
    if center is not None:
        kind = _read("center", _parse_kind, center)
        return s_embed(params, kind, region_center(kind, params.tau))
    if state_json is None:
        raise DomainError("an initial state is required (--state or --center)")
    payload = _read("state", json.loads, state_json) if isinstance(state_json, str) else state_json
    if not isinstance(payload, dict) or set(payload) != {"phases", "ftds"}:
        raise DomainError('state must be an object with keys "phases" and "ftds"')
    state = _read("state", _parse_state, payload)
    try:
        (require_section_state if section else validate_state)(params, state)
    except ValueError as exc:
        raise DomainError(f"--state: {exc}") from exc
    return state


def _parse_state(payload: dict) -> NetworkState:
    """The state of a --state object, whose phases and firing-time
    distances a config file must give as JSON numbers (not booleans or
    strings)."""
    return network_state(
        map(_parse_float, payload["phases"]),
        [map(_parse_float, row) for row in payload["ftds"]],
    )


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
    horizon = run.get("horizon", 3 * params.tau, _parse_float)
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
    state = _resolve_state(run, params, section=True)
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
    kind = _read("kind", _parse_kind, run.get("kind", "ir4"))
    params = run.params()
    print("true" if region_exists(params, kind) else "false")
    return 0


def _cmd_region_member(run: _Run) -> int:
    kind = _read("kind", _parse_kind, run.get("kind", "ir4"))
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
    kind = _read("kind", _parse_kind, run.get("kind", "ir4"))
    params = run.params()
    method = run.get("method", "exact")
    if method not in ("exact", "montecarlo", "both"):
        raise DomainError(f"unknown volume method {method!r}")
    samples = run.samples(1_000_000)
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
    kind = _read("kind", _parse_kind, run.get("kind", "ir4"))
    params = run.params()
    n = run.samples(100, least=0)
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
    n = run.samples(1000, least=0)
    seed = run.seed()
    compare = run.get("compare", False, _parse_bool)
    if compare:
        step = run.step(0.05)
        tol = run.tol(1e-6)
    elif run.given("step"):
        raise DomainError("--step needs --compare: only the overlay scans a grid")
    elif run.given("tol"):
        raise DomainError("--tol needs --compare: only the overlay checks containment")
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
        theta1, theta2 = _ir4_phase_plane(params, sigmas.T)
        lines = header + ["set,theta1,theta2"]
        lines += [
            f"analytic,{_fmt(t1)},{_fmt(t2)}" for t1, t2 in zip(theta1.tolist(), theta2.tolist())
        ]
        run.write_or_print(out_csv, lines)
        print(f"projected {n} family points to the phase plane")
        ok = True
    run.write(plot_script, _write_plot, emit_projection_plot, out_csv)
    return 0 if ok else 1


# -- scan -------------------------------------------------------------------------


def _cmd_scan_phases(run: _Run) -> int:
    params = run.params(three=True)
    step = run.step(DEFAULT_SCAN_STEP)
    max_iter, tol = run.budget()
    threads = run.threads()
    _, out_csv, out_json, plot_script = run.outputs("out_csv", "out_json", "plot_script")

    result = phase_scan(params, step=step, max_iter=max_iter, tol=tol, workers=threads)

    run.write(out_csv, write_phase_scan_csv, result, timestamp=run.timestamp)
    run.write(out_json, write_phase_scan_json, result, timestamp=run.timestamp)
    run.write(plot_script, _write_plot, emit_phase_scan_plot, out_csv)

    summary = ", ".join(f"{k}: {cells}" for k, cells in result.period_census().items())
    print(f"{result.grid.size} cells; section periods {{{summary}}}")
    if result.not_periodic_count():
        print(f"not periodic within budget: {result.not_periodic_count()} cells")
    return 0


def _cmd_scan_params(run: _Run) -> int:
    b = run.get("b", 3.0, _parse_float)
    n = run.get("n", 3, _parse_int)
    grid_raw = run.get("grid", "100x100")
    n_eps, n_tau = _read("grid", _parse_grid, grid_raw)
    kind = _read("kind", _parse_kind, run.get("kind", "ir4"))
    volume_raw = run.get("volume_kinds", "") or ""
    parts = _read("volume_kinds", lambda v: v.split(","), volume_raw)
    volume_kinds = tuple(_read("volume_kinds", _parse_kind, part) for part in parts if part)
    volume_method = run.get("volume_method", "exact")
    volume_samples = run.samples(100_000, "volume_samples")
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
    kinds = _read("suite", _parse_suite, run.get("suite", "ir4"))
    params = run.params(three=True)
    n = run.samples(1000)
    seed = run.seed()
    tol = run.tol(1e-9)
    _, out = run.outputs("out", seed=seed)
    tau = params.tau

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

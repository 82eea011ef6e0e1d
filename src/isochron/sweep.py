"""Batch experiments: initial-condition scans, parameter-plane maps,
analytic-versus-numeric overlays, stability probes, and dataset writers.

Every experiment here is deterministic for a fixed configuration and
seed, including under a worker pool (tasks are gathered in submission
order and every random stream is derived from the configured seed), so
datasets are reproducible byte for byte.  Writers stamp each file with a
header carrying the tool version, the full configuration, and the seed;
an optional wall-clock line is the only nondeterministic content and is
off by default.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._serial import Record, plain
from ._version import __version__
from .engine import NetworkState, TraceEvent, format_trace_text, init_engine, network_state
from .model import DomainError, ModelParams, jump
from .poincare import (
    DEFAULT_MATCH_TOL,
    NotPeriodic,
    PeriodicityResult,
    PulseSignature,
    detect_periodicity,
    detect_periodicity_many,
    phase_projection,
    poincare_map,
    pulse_equivalent,
    pulse_signature,
    state_distance,
    states_match,
)
from .regions import (
    KINDS,
    g_map,
    ir4_projection_contains,
    membership,
    membership_margin,
    region_center,
    region_exists,
    region_spec,
    region_volume,
    s_embed,
    sample_interior,
)

#: Default grid step of the initial-phase scan (desk scale: 10^4 orbits).
DEFAULT_SCAN_STEP = 0.01

#: Default iteration budget before an orbit is declared not periodic.
DEFAULT_SCAN_MAX_ITER = 10_000

#: Starts per lockstep detection batch (detect_periodicity_many): a scan
#: task takes this many grid cells, rounded down to whole grid rows (at
#: least one), and projection_compare seeds its orbits in batches of this
#: size.  Larger batches run faster and hold more results at once.
_SCAN_BLOCK_CELLS = 300


def _fmt(x: float) -> str:
    """17-significant-digit decimal rendering (round-trips doubles)."""
    return format(float(x), ".17g")


def _run_tasks(fn, tasks: list, workers: int) -> Iterator:
    """Run independent tasks, serially or on a process pool, and yield
    their results in task order either way, so the output is identical
    and a consumer can drop each result before the next arrives."""
    if workers <= 1:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks)


# -- initial-phase scan ---------------------------------------------------------


def eq_init_state(params: ModelParams, theta1: float, theta2: float) -> NetworkState:
    """Scan-grid initial state: phases (theta_1, theta_2, 0); each of the
    first two oscillators remembers a firing theta_i ago iff theta_i lies
    within the delay window (boundary included); the reference oscillator
    fired at time zero."""
    ftd1 = (theta1,) if theta1 <= params.tau else ()
    ftd2 = (theta2,) if theta2 <= params.tau else ()
    return network_state(
        phases=(theta1, theta2, 0.0), ftds=(ftd1, ftd2, (0.0,))
    )


@dataclass(frozen=True)
class ScanRecord(Record):
    """One grid cell of an initial-phase scan.

    For periodic orbits, transient_iters / poincare_period / orbit_period
    mirror the detector's result, signature_id indexes the scan's interned
    signature table, and projection lists the attractor's section states
    projected to the first two phases (one point per cycle state).  Cells
    whose orbit never revisited a state within the budget keep periodic =
    False and carry no period fields.
    """

    theta1: float
    theta2: float
    periodic: bool
    transient_iters: int | None = None
    poincare_period: int | None = None
    orbit_period: float | None = None
    signature_id: int | None = None
    projection: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class PhaseScanResult(Record):
    """Full initial-phase scan: one record per grid cell plus the interned
    signature table (signature_id indexes it)."""

    params: ModelParams
    step: float
    max_iter: int
    tol: float
    records: tuple[ScanRecord, ...]
    signatures: tuple[PulseSignature, ...]

    _command = "phase_scan"
    _config = ("params", "step", "max_iter", "tol")

    def observed_periods(self) -> set[int]:
        return {
            r.poincare_period for r in self.records if r.poincare_period is not None
        }

    def not_periodic_count(self) -> int:
        return sum(1 for r in self.records if not r.periodic)


def _grid_values(step: float) -> list[float]:
    if not 0.0 < step < 1.0:
        raise DomainError(f"grid step must lie in (0, 1), got {step}")
    count = int(math.floor((1.0 - 1e-12) / step)) + 1
    return [i * step for i in range(count)]


def _scan_rows(args) -> list[tuple]:
    """Worker task: run the cycle detector on a block of theta_1 rows
    against all theta_2 values, as one batch; returns (theta1, theta2,
    result) per cell in grid order."""
    params, theta1s, theta2s, max_iter, tol = args
    cells = [(theta1, theta2) for theta1 in theta1s for theta2 in theta2s]
    starts = [eq_init_state(params, theta1, theta2) for theta1, theta2 in cells]
    results = detect_periodicity_many(params, starts, max_iter=max_iter, tol=tol)
    return [(theta1, theta2, result) for (theta1, theta2), result in zip(cells, results)]


def _scan_cells(params: ModelParams, step: float, max_iter: int, tol: float, workers: int):
    """Yield (theta1, theta2, result) over the initial-phase grid in grid
    order, one block of whole grid rows at a time."""
    values = _grid_values(step)
    rows = max(1, _SCAN_BLOCK_CELLS // len(values))
    tasks = [
        (params, values[i : i + rows], values, max_iter, tol)
        for i in range(0, len(values), rows)
    ]
    for block in _run_tasks(_scan_rows, tasks, workers):
        yield from block


def phase_scan(
    params: ModelParams,
    step: float = DEFAULT_SCAN_STEP,
    max_iter: int = DEFAULT_SCAN_MAX_ITER,
    tol: float = 1e-9,
    workers: int = 1,
) -> PhaseScanResult:
    """Scan the initial-phase square [0,1)^2 on a regular grid.

    Each cell builds its initial state with eq_init_state, runs the cycle
    detector, and records the orbit's period data, interned pulse
    signature, and attractor projection.  Cells are independent; with
    workers > 1 rows are scanned on a process pool and gathered in grid
    order, so the result is identical to a serial run.
    """
    records: list[ScanRecord] = []
    signatures: list[PulseSignature] = []
    # Signature ids by per-recipient multiplicity pattern, which equivalent
    # signatures share; only the period is left to compare within a bucket.
    buckets: dict[tuple, list[int]] = {}
    for theta1, theta2, result in _scan_cells(params, step, max_iter, tol, workers):
        if not isinstance(result, PeriodicityResult):
            records.append(ScanRecord(theta1=theta1, theta2=theta2, periodic=False))
            continue
        signature = pulse_signature(params, result)
        bucket = buckets.setdefault(tuple(sorted(signature.per_recipient().items())), [])
        sid = next((i for i in bucket if pulse_equivalent(signatures[i], signature)), None)
        if sid is None:
            signatures.append(signature)
            sid = len(signatures) - 1
            bucket.append(sid)
        records.append(
            ScanRecord(
                theta1=theta1,
                theta2=theta2,
                periodic=True,
                transient_iters=result.transient_iters,
                poincare_period=result.poincare_period,
                orbit_period=result.orbit_period,
                signature_id=sid,
                projection=tuple(map(phase_projection, result.cycle_states)),
            )
        )
    return PhaseScanResult(
        params=params,
        step=step,
        max_iter=max_iter,
        tol=tol,
        records=tuple(records),
        signatures=tuple(signatures),
    )


# -- parameter-plane scan -------------------------------------------------------


@dataclass(frozen=True)
class ParamScanRecord(Record):
    """Existence flag and region volume of each family (keyed by KINDS) at
    one (eps, tau); a volume is None unless the scan computed it."""

    eps: float
    tau: float
    exists: dict[str, bool]
    volumes: dict[str, float | None]

    _spread = {"exists": "exists_{}", "volumes": "volume_{}"}


@dataclass(frozen=True)
class ParamScanResult(Record):
    """Existence/volume map over a rectangular (eps, tau) grid."""

    b: float
    n: int
    eps_values: tuple[float, ...]
    tau_values: tuple[float, ...]
    volume_kinds: tuple[str, ...]
    volume_method: str
    volume_samples: int
    seed: int
    records: tuple[ParamScanRecord, ...]

    _command = "param_scan"
    _config = (
        "b", "n", "eps_values", "tau_values", "volume_kinds", "volume_method", "volume_samples"
    )


def _param_cell(args) -> ParamScanRecord:
    eps, tau, b, n, volume_kinds, method, samples, cell_seed = args
    params = ModelParams(b=b, eps=eps, n=n, tau=tau)
    exists = {kind: region_exists(params, kind) for kind in KINDS}
    volumes = dict.fromkeys(KINDS)
    for kind in volume_kinds:
        volumes[kind] = region_volume(
            region_spec(params, kind), method=method, samples=samples, seed=cell_seed
        ).volume
    return ParamScanRecord(eps=eps, tau=tau, exists=exists, volumes=volumes)


def param_scan(
    eps_values,
    tau_values,
    b: float = 3.0,
    n: int = 3,
    volume_kinds: tuple[str, ...] = (),
    volume_method: str = "exact",
    volume_samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> ParamScanResult:
    """Map region existence (and optionally volume) over an (eps, tau)
    grid.  Monte Carlo volume cells draw their seeds from one root seed,
    so the dataset is reproducible at any worker count."""
    eps_values = tuple(float(v) for v in eps_values)
    tau_values = tuple(float(v) for v in tau_values)
    if len(eps_values) < 2 or len(tau_values) < 2:
        raise DomainError("parameter grid needs at least 2 values per axis")
    cells = [(e, t) for e in eps_values for t in tau_values]
    cell_seeds = np.random.SeedSequence(seed).generate_state(len(cells))
    tasks = [
        (e, t, b, n, tuple(volume_kinds), volume_method, volume_samples, int(s))
        for (e, t), s in zip(cells, cell_seeds)
    ]
    records = _run_tasks(_param_cell, tasks, workers)
    return ParamScanResult(
        b=b,
        n=n,
        eps_values=eps_values,
        tau_values=tau_values,
        volume_kinds=tuple(volume_kinds),
        volume_method=volume_method,
        volume_samples=volume_samples,
        seed=seed,
        records=tuple(records),
    )


# -- analytic-versus-numeric projection overlay ----------------------------------


@dataclass(frozen=True)
class ProjectionCompareReport(Record):
    """Overlay dataset: the period-4 family's analytic phase-plane image
    against the family orbits a scan actually finds, plus orbits recovered
    by seeding directly from family points.

    The network is symmetric under relabeling the two free oscillators, so
    a scan discovers the family in two guises: orbits through canonical
    family states, and their mirror images (projections reflected across
    the diagonal).  Identified mirror orbits are relabeled back before
    projecting, and counted in mirror_orbit_count; period-4 attractors
    matching neither guise are only counted.  contained is True when every
    identified family projection passes the exact membership test of the
    analytic image within tol; violations lists the failing points.
    """

    params: ModelParams
    n_samples: int
    seed: int
    step: float
    tol: float
    analytic_points: tuple[tuple[float, float], ...]
    numeric_points: tuple[tuple[float, float], ...]
    numeric_orbit_count: int
    mirror_orbit_count: int
    unidentified_period4_count: int
    seeded_points: tuple[tuple[float, float], ...]
    seeded_orbit_count: int
    contained: bool
    violations: tuple[tuple[float, float], ...]

    _command = "projection_compare"
    _config = ("params", "n_samples", "step", "tol")


def _swap_free_oscillators(state: NetworkState) -> NetworkState:
    """Relabel the two non-reference oscillators."""
    return network_state(
        phases=(state.phases[1], state.phases[0], state.phases[2]),
        ftds=(state.ftds[1], state.ftds[0], state.ftds[2]),
    )


def _invert_family_state(params: ModelParams, state: NetworkState):
    """Read the family coordinate off a period-4 state: (sigma, canonical
    state of sigma), or None when the state has the wrong shape or
    ordering."""
    if tuple(len(r) for r in state.ftds) != (1, 1, 2):
        return None
    if state.ftds[2][0] != 0.0:
        return None
    sigma = (state.ftds[0][0], state.ftds[1][0], state.ftds[2][1])
    try:
        return sigma, s_embed(params, "IR4", sigma)
    except DomainError:
        return None


def _identify_family_cycle(
    params: ModelParams, spec, result: PeriodicityResult, tol: float
):
    """Match a detected cycle against the period-4 family, directly or
    after relabeling the free oscillators.  Returns (mirrored, sigma) for
    the first cycle state that embeds a member, else None."""
    for mirrored in (False, True):
        for state in result.cycle_states:
            candidate = _swap_free_oscillators(state) if mirrored else state
            inverted = _invert_family_state(params, candidate)
            if inverted is not None:
                sigma, canonical = inverted
                if membership(spec, sigma, margin=-tol) and states_match(
                    candidate, canonical, tol
                ):
                    return mirrored, sigma
    return None


def projection_compare(
    params: ModelParams,
    n_samples: int = 200,
    seed: int = 0,
    step: float = 0.05,
    max_iter: int = DEFAULT_SCAN_MAX_ITER,
    tol: float = 1e-6,
    workers: int = 1,
) -> ProjectionCompareReport:
    """Compare the analytic phase-plane image of the period-4 family with
    what an initial-phase scan actually finds.

    Three point sets are emitted: the analytic image sampled uniformly
    from the family's interior; the canonical projections of scan
    attractors identified as family orbits (relabeling mirror copies
    back); and the projections of orbits seeded directly from sampled
    family points (which always recover the family, even at parameters
    where the scan grid finds no period-4 orbit).
    """
    if not region_exists(params, "IR4"):
        raise DomainError(
            f"the period-4 family is empty at (eps={params.eps}, tau={params.tau})"
        )
    spec = region_spec(params, "IR4")
    analytic_sigma = sample_interior(params, "IR4", n_samples, seed=seed)
    analytic = tuple(
        (jump(params, float(s[0]), params.eps_hat), float(s[1]))
        for s in analytic_sigma
    )

    numeric: list[tuple[float, float]] = []
    numeric_orbits = 0
    mirror_orbits = 0
    unidentified = 0
    for _, _, result in _scan_cells(params, step, max_iter, DEFAULT_MATCH_TOL, workers):
        if not isinstance(result, PeriodicityResult) or result.poincare_period != 4:
            continue
        identified = _identify_family_cycle(params, spec, result, tol=1e-7)
        if identified is None:
            unidentified += 1
            continue
        mirrored, sigma = identified
        numeric_orbits += 1
        if mirrored:
            mirror_orbits += 1
        cur = sigma
        for _ in range(4):
            numeric.append((jump(params, cur[0], params.eps_hat), cur[1]))
            cur = g_map(cur, params.tau)

    seeded_sigma = sample_interior(params, "IR4", n_samples, seed=seed + 1)
    seeded: list[tuple[float, float]] = []
    seeded_orbits = 0
    for lo in range(0, len(seeded_sigma), _SCAN_BLOCK_CELLS):
        seeds = [
            s_embed(params, "IR4", tuple(float(v) for v in row))
            for row in seeded_sigma[lo : lo + _SCAN_BLOCK_CELLS]
        ]
        for result in detect_periodicity_many(params, seeds, max_iter=16):
            if isinstance(result, PeriodicityResult) and result.poincare_period == 4:
                seeded_orbits += 1
                seeded.extend(map(phase_projection, result.cycle_states))

    violations = tuple(
        p for p in numeric if not ir4_projection_contains(params, p[0], p[1], tol=tol)
    )
    return ProjectionCompareReport(
        params=params,
        n_samples=n_samples,
        seed=seed,
        step=step,
        tol=tol,
        analytic_points=analytic,
        numeric_points=tuple(numeric),
        numeric_orbit_count=numeric_orbits,
        mirror_orbit_count=mirror_orbits,
        unidentified_period4_count=unidentified,
        seeded_points=tuple(seeded),
        seeded_orbit_count=seeded_orbits,
        contained=not violations,
        violations=violations,
    )


# -- stability probe --------------------------------------------------------------


@dataclass(frozen=True)
class StabilityFailure:
    """One counterexample: the perturbed start and where it landed."""

    sigma_perturbed: tuple[float, float, float]
    dtheta: tuple[float, float]
    dsigma: tuple[float, float, float]
    distance: float
    trace: str


@dataclass(frozen=True)
class StabilityReport(Record):
    """Outcome of randomized one-return convergence trials around a
    period-4 family point.

    Trials whose perturbed coordinates leave the family (or produce an
    invalid phase) are refused up front — they break the probe's
    precondition — and are counted separately from failures.
    """

    params: ModelParams
    sigma: tuple[float, float, float]
    dtheta_max: float
    dsigma_max: float
    n_trials: int
    seed: int
    tol: float
    n_run: int
    n_refused: int
    max_distance: float
    failures: tuple[StabilityFailure, ...]

    _command = "stability_probe"
    _config = ("params", "sigma", "dtheta_max", "dsigma_max", "n_trials", "tol")
    _extra = ("ok",)

    @property
    def ok(self) -> bool:
        return self.n_run > 0 and not self.failures


def _perturbed_state(
    params: ModelParams, sigma: tuple[float, float, float], dtheta
) -> NetworkState:
    """The canonical period-4 state of sigma with its free phases nudged."""
    state = s_embed(params, "IR4", sigma)
    theta1, theta2, theta3 = state.phases
    return network_state(
        phases=(theta1 + dtheta[0], theta2 + dtheta[1], theta3), ftds=state.ftds
    )


def stability_probe(
    params: ModelParams,
    sigma: tuple[float, float, float],
    dtheta_max: float = 1e-4,
    dsigma_max: float = 1e-4,
    n_trials: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> StabilityReport:
    """Probe one-return convergence: from the canonical state of
    sigma + dsigma with phases nudged by dtheta, a single section return
    must land exactly on the canonical state of g(sigma + dsigma).

    Counterexamples are reported with the full event trace of the
    offending return.
    """
    spec = region_spec(params, "IR4")
    if membership_margin(spec, sigma) <= 0.0:
        raise DomainError(
            f"sigma {sigma} is not interior to the period-4 family"
        )
    rng = np.random.default_rng(seed)
    failures: list[StabilityFailure] = []
    n_run = 0
    n_refused = 0
    max_distance = 0.0
    for _ in range(n_trials):
        dtheta = tuple(rng.uniform(-dtheta_max, dtheta_max, size=2))
        dsigma = tuple(rng.uniform(-dsigma_max, dsigma_max, size=3))
        moved = tuple(s + d for s, d in zip(sigma, dsigma))
        theta1 = jump(params, moved[0], params.eps_hat) + dtheta[0]
        theta2 = moved[1] + dtheta[1]
        if not membership(spec, moved) or not (
            0.0 <= theta1 < 1.0 and 0.0 <= theta2 < 1.0
        ):
            n_refused += 1
            continue
        n_run += 1
        start = _perturbed_state(params, moved, dtheta)
        landed, _ = poincare_map(params, start)
        target = s_embed(params, "IR4", g_map(moved, params.tau))
        distance = state_distance(landed, target)
        max_distance = max(max_distance, distance)
        if distance > tol:
            engine = init_engine(params, start)
            _, _, events = engine.run_until_section()
            failures.append(
                StabilityFailure(
                    sigma_perturbed=moved,
                    dtheta=dtheta,
                    dsigma=dsigma,
                    distance=distance,
                    trace=format_trace_text(events),
                )
            )
    return StabilityReport(
        params=params,
        sigma=tuple(sigma),
        dtheta_max=dtheta_max,
        dsigma_max=dsigma_max,
        n_trials=n_trials,
        seed=seed,
        tol=tol,
        n_run=n_run,
        n_refused=n_refused,
        max_distance=max_distance,
        failures=tuple(failures),
    )


# -- boundary escape demo -----------------------------------------------------------


@dataclass(frozen=True)
class EscapeReport(Record):
    """From the period-4 family's center state: the early event trace and
    where the orbit settles.  Outside the family's existence region the
    dynamics abandon the four-return pattern and converge to a single-
    return attractor; inside, the center is a fixed point from the start;
    with the coupling switched off every oscillator free-runs with period
    exactly one."""

    params: ModelParams
    region_nonempty: bool
    horizon: float
    events: tuple[TraceEvent, ...]
    result: PeriodicityResult | NotPeriodic

    _command = "boundary_escape_demo"
    _config = ("params", "horizon")
    _reshape = {"events": len}


def boundary_escape_demo(
    params: ModelParams,
    horizon: float | None = None,
    max_iter: int = 1000,
    tol: float = 1e-9,
) -> EscapeReport:
    """Simulate from the period-4 center state and report the attractor.

    Useful on both sides of the existence boundary: inside it documents
    the single-return fixed point, just outside it documents the fast
    collapse onto a stable single-return attractor.
    """
    state = s_embed(params, "IR4", region_center("IR4", params.tau))
    horizon = 3 * params.tau if horizon is None else horizon
    events = init_engine(params, state).simulate(horizon)
    result = detect_periodicity(params, state, max_iter=max_iter, tol=tol)
    return EscapeReport(
        params=params,
        region_nonempty=region_exists(params, "IR4"),
        horizon=horizon,
        events=tuple(events),
        result=result,
    )


# -- dataset writers ------------------------------------------------------------------


def dataset_header(
    config: dict, seed: int | None = None, timestamp: str | None = None
) -> list[str]:
    """Comment lines stamped at the top of every dataset: tool version,
    full configuration (sorted JSON), seed, and — only when given — the
    wall-clock timestamp.  Identical configuration and seed produce
    identical headers, keeping datasets byte-reproducible."""
    lines = [
        f"# isochron {__version__}",
        f"# config: {json.dumps(config, sort_keys=True)}",
    ]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    if timestamp is not None:
        lines.append(f"# timestamp: {timestamp}")
    return lines


def _write_csv(path, header_lines: list[str], columns: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


class _Streamed(list):
    """A sequence that the JSON encoder walks one item at a time, each in
    its plain() form, so no plain() copy of the whole sequence is built."""

    def __init__(self, items) -> None:
        super().__init__()
        self._items = items

    def __iter__(self):
        return map(plain, self._items)

    def __len__(self) -> int:
        return len(self._items)


def _write_json(path, timestamp: str | None, **fields) -> None:
    """A JSON dataset: tool version, timestamp, and each field in its
    plain() form, keys sorted.  Sequences are encoded item by item, with
    the bytes json.dump(sort_keys=True, indent=1) writes."""
    payload = {"version": __version__, "timestamp": timestamp}
    for key, value in fields.items():
        payload[key] = _Streamed(value) if isinstance(value, (tuple, list)) else plain(value)
    with open(path, "w") as fh:
        for chunk in json.JSONEncoder(sort_keys=True, indent=1).iterencode(payload):
            fh.write(chunk)
        fh.write("\n")


def _opt(value) -> str:
    return "" if value is None else _fmt(value)


def write_phase_scan_csv(
    result: PhaseScanResult, path, seed: int | None = None, timestamp: str | None = None
) -> None:
    """One row per grid cell; projection points are semicolon-joined
    "x y" pairs so the cell needs no quoting."""
    rows = (
        (
            _fmt(r.theta1),
            _fmt(r.theta2),
            int(r.periodic),
            _opt(r.transient_iters),
            _opt(r.poincare_period),
            _opt(r.orbit_period),
            _opt(r.signature_id),
            ";".join(f"{_fmt(x)} {_fmt(y)}" for x, y in r.projection),
        )
        for r in result.records
    )
    _write_csv(
        path,
        dataset_header(result.config_dict(), seed=seed, timestamp=timestamp),
        [
            "theta1",
            "theta2",
            "periodic",
            "transient_iters",
            "poincare_period",
            "orbit_period",
            "signature_id",
            "projection",
        ],
        rows,
    )


def write_phase_scan_json(
    result: PhaseScanResult, path, seed: int | None = None, timestamp: str | None = None
) -> None:
    _write_json(
        path,
        timestamp,
        config=result.config_dict(),
        seed=seed,
        signatures=result.signatures,
        records=result.records,
    )


def write_param_scan_csv(
    result: ParamScanResult, path, timestamp: str | None = None
) -> None:
    exists = [f"exists_{k.lower()}" for k in KINDS]
    volumes = [f"volume_{k.lower()}" for k in KINDS]
    rows = (
        (_fmt(r.eps), _fmt(r.tau))
        + tuple(int(r.exists[k]) for k in KINDS)
        + tuple(_opt(r.volumes[k]) for k in KINDS)
        for r in result.records
    )
    _write_csv(
        path,
        dataset_header(result.config_dict(), seed=result.seed, timestamp=timestamp),
        ["eps", "tau"] + exists + volumes,
        rows,
    )


def write_param_scan_json(
    result: ParamScanResult, path, timestamp: str | None = None
) -> None:
    _write_json(
        path, timestamp, config=result.config_dict(), seed=result.seed, records=result.records
    )


def write_projection_csv(
    report: ProjectionCompareReport, path, timestamp: str | None = None
) -> None:
    """Long format: one point per row, tagged by which set it belongs to
    (analytic image, scan attractor, or seeded orbit)."""
    rows = (
        (label, _fmt(x), _fmt(y))
        for label, points in (
            ("analytic", report.analytic_points),
            ("scan", report.numeric_points),
            ("seeded", report.seeded_points),
        )
        for x, y in points
    )
    _write_csv(
        path,
        dataset_header(report.config_dict(), seed=report.seed, timestamp=timestamp),
        ["set", "theta1", "theta2"],
        rows,
    )


def write_projection_json(
    report: ProjectionCompareReport, path, timestamp: str | None = None
) -> None:
    _write_json(path, timestamp, **report.to_json_dict())


# -- plot-script emitters ----------------------------------------------------------


def emit_phase_scan_plot(csv_path: str, image_path: str = "phase_scan.png") -> str:
    """Gnuplot commands for a period-colored map of the scan grid."""
    return "\n".join(
        [
            "set datafile separator ','",
            "set terminal pngcairo size 900,800",
            f"set output '{image_path}'",
            "set xlabel 'theta_1'",
            "set ylabel 'theta_2'",
            "set xrange [0:1]",
            "set yrange [0:1]",
            "set cblabel 'Poincare period'",
            "set cbrange [1:5]",
            "set palette maxcolors 5",
            f"plot '{csv_path}' using 1:2:5 with points pt 5 ps 0.6 palette notitle",
            "",
        ]
    )


def emit_param_scan_plot(
    csv_path: str, kind: str = "IR4", image_path: str = "param_scan.png"
) -> str:
    """Gnuplot commands for an existence map over the (eps, tau) plane."""
    column = {k: 3 + i for i, k in enumerate(KINDS)}[kind]
    return "\n".join(
        [
            "set datafile separator ','",
            "set terminal pngcairo size 900,800",
            f"set output '{image_path}'",
            "set xlabel 'epsilon'",
            "set ylabel 'tau'",
            "set cbrange [0:1]",
            "unset colorbox",
            f"plot '{csv_path}' using 1:2:{column} with points pt 5 ps 1.2 palette notitle",
            "",
        ]
    )


def emit_projection_plot(csv_path: str, image_path: str = "projection.png") -> str:
    """Gnuplot commands overlaying the analytic image with scan and seeded
    attractor projections."""
    return "\n".join(
        [
            "set datafile separator ','",
            "set terminal pngcairo size 900,800",
            f"set output '{image_path}'",
            "set xlabel 'theta_1'",
            "set ylabel 'theta_2'",
            f"plot '{csv_path}' using (strcol(1) eq 'analytic' ? $2 : NaN):3 "
            "with points pt 7 ps 0.5 lc rgb '#9ecae1' title 'analytic', \\",
            f"     '{csv_path}' using (strcol(1) eq 'scan' ? $2 : NaN):3 "
            "with points pt 7 ps 0.7 lc rgb '#d62728' title 'scan', \\",
            f"     '{csv_path}' using (strcol(1) eq 'seeded' ? $2 : NaN):3 "
            "with points pt 6 ps 0.7 lc rgb '#2ca02c' title 'seeded'",
            "",
        ]
    )

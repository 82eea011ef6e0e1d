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

import concurrent.futures
import json
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from ._serial import Record, item_template, number_texts, pairs_template, value_text, write_json
from ._version import __version__
from .engine import NetworkState, TraceEvent, format_trace_text, init_engine, network_state
from .lockstep import _bad_rows, _by_row, _decode, _row_col, _row_distance, _widen
from .model import DomainError, ModelParams
from .poincare import (
    DEFAULT_MATCH_TOL,
    NotPeriodic,
    PeriodicityResult,
    PulseSignature,
    _cycle_results,
    _cycle_rows,
    _cycle_table,
    _CycleTable,
    _detect,
    _section_rows,
    detect_periodicity,
    poincare_map,  # noqa: F401  (bound here for perfbench/tracer.py)
    pulse_equivalent,
    pulse_signature,
    states_match,  # noqa: F401  (bound here for perfbench/tracer.py)
)
from .regions import (
    KINDS,
    _embed_rows,
    _family_source,
    _ir4_phase_plane,
    _on_chain,
    _require_nonempty,
    g_map,
    intertwining_distances,
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


def _fmt(x: float) -> str:
    """17-significant-digit decimal rendering (round-trips doubles)."""
    return format(float(x), ".17g")


def _run_tasks(fn, tasks: list, workers: int) -> Iterator:
    """Run independent tasks, serially or on a process pool, and yield
    their results in task order either way, so the output is identical
    and a consumer can drop each result before the next arrives."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        yield from map(fn, tasks)
        return
    # A pool forks all its workers at the first task, so it has no more
    # workers than tasks.  Named through the package, which loads
    # multiprocessing on first use, so a serial run never imports it.
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks)


# -- initial-phase scan ---------------------------------------------------------


def eq_init_state(params: ModelParams, theta1: float, theta2: float) -> NetworkState:
    """Scan-grid initial state of cell (theta1, theta2): the state of its
    one row from _grid_rows."""
    return _decode(*_grid_rows(params, [float(theta1)], [float(theta2)]))[0]


def _grid_rows(params: ModelParams, theta1, theta2) -> tuple:
    """The scan-grid starts of cells (theta1[k], theta2[k]), as rows in
    lockstep's layout (see lockstep._encode): phases (theta_1, theta_2,
    0); each of the first two oscillators remembers a firing theta_i ago
    iff theta_i lies within the delay window (boundary included); the
    reference oscillator fired at time zero.  A start holds three
    oscillators whatever params.n is, and require_section_state refuses it
    for any other n."""
    phases = np.zeros((len(theta1), 3))
    phases[:, 0], phases[:, 1] = theta1, theta2
    held = np.ones(phases.shape, dtype=bool)
    held[:, :2] = phases[:, :2] <= params.tau
    # One entry per held memory, in sender order; empty slots are (0.0, 3).
    row, sender = _row_col(held)
    count = _by_row(np.sum, held)
    slot = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    ftds = np.zeros((len(phases), int(count.max(initial=0))))
    senders = np.full(ftds.shape, 3)
    ftds[row, slot], senders[row, slot] = phases[row, sender], sender
    return phases, ftds, senders


def _grid_source(params: ModelParams, theta1: np.ndarray, theta2: np.ndarray):
    """The row source (see poincare._detect) of the scan-grid starts of
    cells (theta1[k], theta2[k]), in order, made by _grid_rows one batch at
    a time.  The rows are checked by _bad_rows; a batch that holds a
    rejected start goes through _section_rows as NetworkStates, which
    keeps the rows before it and gives the error require_section_state
    raises for it."""
    end = 0

    def take(count: int) -> tuple:
        nonlocal end
        lo, end = end, min(end + count, len(theta1))
        rows = _grid_rows(params, theta1[lo:end], theta2[lo:end])
        if _bad_rows(params, *rows).any():
            return (*_section_rows(params, _decode(*rows)), end - lo)
        return rows, {}, end - lo

    return take


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


#: ScanRecord's fields, in order: the columns of a phase scan's datasets.
_SCAN_FIELDS = tuple(f.name for f in fields(ScanRecord))


@dataclass(frozen=True, eq=False)
class PhaseScanResult(Record):
    """Full initial-phase scan, as columns: grid[i, j] is the cycle in table
    of cell (values[i], values[j]), values = _grid_values(step), or -1 if
    it found none; a cell below the diagonal reads its cycle's mirror image
    (see phase_scan).  signature_ids[0, k] indexes signatures with cycle
    k's signature, signature_ids[1, k] with its mirror's (-1 if no cell
    reads it).  records builds the cells' ScanRecords, in grid order.
    The cells' starts were lockstep rows (_grid_source), not NetworkStates."""

    params: ModelParams
    step: float
    max_iter: int
    tol: float
    grid: np.ndarray
    table: _CycleTable
    signature_ids: np.ndarray
    signatures: tuple[PulseSignature, ...]

    _command = "phase_scan"
    _config = ("params", "step", "max_iter", "tol")
    _omit = ("grid", "table", "signature_ids")
    _extra = ("records",)

    @property
    def records(self) -> tuple[ScanRecord, ...]:
        """The cells' ScanRecords, in grid order, read off the fields of
        their slots (_slots); each projection is made once per group of
        _projections."""
        table, values = self.table, _grid_values(self.step)
        group, first = self._projections
        periods = np.tile(table.periods, 2)
        points, lo = _slot_points(table), (np.cumsum(periods) - periods)[first]
        made = [tuple(map(tuple, points[a : a + p].tolist())) for a, p in zip(lo, periods[first])]
        columns = (
            [True] * len(periods) + [False],
            *([*column.tolist() * 2, None] for column in table[:3]),
            [*self.signature_ids.ravel().tolist(), None],
            [*map(made.__getitem__, group.tolist()), ()],
        )
        slots = _slots(self.grid, len(table.periods)).ravel().tolist()
        theta1 = [value for value in values for _ in values]
        cells = (map(column.__getitem__, slots) for column in columns)
        return tuple(map(ScanRecord, theta1, values * len(values), *cells))

    @cached_property
    def _projections(self) -> tuple[np.ndarray, np.ndarray]:
        """(group, first) of the slots' projections by _groups: slots whose
        cycle states project to the same (theta1, theta2) pairs, compared
        by bits (equal points differ when one holds -0.0), share a group.
        Made once, for records and both writers (_scan_parts)."""
        return _groups(_slot_points(self.table), np.tile(self.table.periods, 2))

    def period_census(self) -> dict[int, int]:
        """Periodic cells by section period, in increasing period order."""
        found = self.table.periods[self.grid[self.grid >= 0]]
        periods, cells = np.unique(found, return_counts=True)
        return dict(zip(periods.tolist(), cells.tolist()))

    def observed_periods(self) -> set[int]:
        return set(self.period_census())

    def not_periodic_count(self) -> int:
        return int(np.count_nonzero(self.grid < 0))


#: The oscillators' order with the two free ones swapped (see phase_scan).
_MIRROR = np.array([1, 0, 2])


def _slot_points(table: _CycleTable) -> np.ndarray:
    """The (theta1, theta2) projections of each slot's cycle states (see
    _slots), as consecutive rows, a mirror's after every cycle's."""
    return np.concatenate([table.phases[:, :2], table.phases[:, _MIRROR[:2]]])


#: The most cells a scan grid may hold.  A phase scan's peak memory grows
#: by about 0.65 kB a cell (60 MB for the 0.005 grid's 40,000 cells, 137 MB
#: for the 0.0025 grid's 160,000), so this many would take some 6.5 GB.  A
#: finer step or a larger grid is refused before any of its values is made.
MAX_GRID_CELLS = 10**7


def _grid_count(step: float, name: str = "grid step") -> int:
    """The count of values per axis of the phase-scan grid of step, which
    must lie in (0, 1) and give at most MAX_GRID_CELLS cells, or
    DomainError calling it name."""
    if not 0.0 < step < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {step}")
    # Checked before it is made an integer, which may be inf or 10^300.
    span, most = (1.0 - 1e-12) / step, math.isqrt(MAX_GRID_CELLS)
    if not span < most:
        raise DomainError(
            f"{name} {step} is too fine: a scan grid holds at most {most} values per axis"
            f" ({MAX_GRID_CELLS} cells)"
        )
    return int(math.floor(span)) + 1


def _grid_values(step: float) -> list[float]:
    return [i * step for i in range(_grid_count(step))]


def _scan_span(args) -> tuple:
    """Worker task: poincare._detect's (cycle, chunks) over a span of grid
    cells (theta1[k], theta2[k]), from their _grid_source rows."""
    params, theta1, theta2, max_iter, tol = args
    cycle, _, chunks = _detect(params, _grid_source(params, theta1, theta2), max_iter, tol)
    return cycle, chunks


def _scan_triangle(params: ModelParams, values: list, max_iter: int, tol: float, workers: int):
    """(grid, table): the _CycleTable of the grid cells with theta1 <=
    theta2, and grid[i, j], the cycle in it of cell (values[i], values[j])
    or, below the diagonal, of its transpose; -1 where that cell found
    none within max_iter returns.  The triangle runs as one
    poincare._detect stream, or with workers > 1 as one span of equal cell
    count per worker; one table is built from every span's chunks, in span
    order."""
    upper = np.triu_indices(len(values))
    theta1, theta2 = (np.array(values)[axis] for axis in upper)
    span = -(-len(theta1) // max(workers, 1))
    tasks = [
        (params, theta1[i : i + span], theta2[i : i + span], max_iter, tol)
        for i in range(0, len(theta1), span)
    ]
    cycles, chunks = zip(*_run_tasks(_scan_span, tasks, workers))
    found = np.cumsum([0, *(np.count_nonzero(c >= 0) for c in cycles)])
    grid = np.full((len(values), len(values)), -1)
    grid[upper] = np.concatenate(
        [np.where(c >= 0, c + shift, -1) for c, shift in zip(cycles, found)]
    )
    table = _cycle_table(params.n, [chunk for span_chunks in chunks for chunk in span_chunks])
    return np.maximum(grid, grid.T), table


def _slots(grid: np.ndarray, count: int) -> np.ndarray:
    """The slot of each cell of a grid of count cycles: k for cycle k,
    count + k for its mirror image, which the cells below the diagonal
    read, and 2 * count for no cycle."""
    below = np.tri(len(grid), k=-1, dtype=bool)
    return np.where(grid < 0, 2 * count, grid + count * below)


def _mirror_order(receptions: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(who, order) of the mirrors' receptions: the recipients mirrored
    (_MIRROR), and the order that re-sorts the receptions stably by (cycle,
    offset, recipient), as poincare._cycle_table does.  The receptions are
    in that order already, so only runs of one (cycle, offset) move."""
    k, who, _, offset = receptions
    who = _MIRROR[who]
    run = np.ones(len(k), dtype=bool)
    run[1:] = (k[1:] != k[:-1]) | (offset[1:] != offset[:-1])
    run = np.cumsum(run) * (int(who.max(initial=0)) + 1)
    return who, np.argsort(run + who, kind="stable")


def _groups(items: np.ndarray, counts: np.ndarray, head: np.ndarray | None = None) -> tuple:
    """(group, first) of slots that each hold counts[s] consecutive rows of
    items, after a row of head if given: slots alike byte for byte share a
    group, numbered in order of first appearance, and first[g] is group
    g's first slot.  Slots of one count are compared at once, so no row is
    padded.  Without a head, every count is at least 1."""
    width = items.itemsize * items.shape[1]
    items = items.view(np.uint8).reshape(len(items), width)
    starts = np.cumsum(counts) - counts
    key = np.empty(len(counts), dtype=int)
    for c in np.flatnonzero(np.bincount(counts)).tolist():
        slots = np.flatnonzero(counts == c)
        rows = items[(starts[slots, None] + np.arange(c)).ravel()].reshape(len(slots), c * width)
        if head is not None:
            rows = np.hstack([head[slots].view(np.uint8), rows])
        rows = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
        # Keys of one count follow those of smaller counts.
        key[slots] = np.unique(rows, return_inverse=True)[1] + c * len(counts)
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[group], first[order]


def _intern(params: ModelParams, grid: np.ndarray, table: _CycleTable) -> tuple:
    """(signature_ids, signatures) of a phase scan (see PhaseScanResult).

    Slots alike in the pulses they receive (recipient and multiplicity, in
    order; a mirror's by _mirror_order) and in orbit period (by its bits)
    form a class, grouped on arrays (_groups), and each class is interned
    once, at its first cell in grid order: the pulse_signature of its
    cycle's _cycle_results, with the mirrored receptions below the
    diagonal, takes the id of the first earlier signature with its
    per-recipient pattern that pulse_equivalent accepts, else a new one."""
    count = len(table.periods)
    k, who, mult, offset = table.receptions
    swapped, order = _mirror_order((k, who, mult, offset))
    # Each slot's orbit period, by its bits, then its (recipient,
    # multiplicity) pairs in order; a mirror's after every cycle's.
    small = np.min_scalar_type(max(params.n - 1, int(mult.max(initial=0))))
    pulses = np.empty((2, len(k), 2), small)
    pulses[0, :, 0], pulses[0, :, 1] = who, mult
    pulses[1, :, 0], pulses[1, :, 1] = swapped[order], mult[order]
    received = np.tile(np.bincount(k, minlength=count), 2)
    orbits = np.tile(table.orbits, 2)[:, None]
    slot_class = _groups(pulses.reshape(-1, 2), received, orbits)[0]
    slots = _slots(grid, count).ravel()
    slots = slots[slots < 2 * count]
    cell_class = slot_class[slots]
    first = np.sort(np.unique(cell_class, return_index=True)[1])
    slots = slots[first]
    below = slots >= count
    cycles = slots - count * below
    # A mirror's receptions keep its cycle's range.
    lo = np.searchsorted(k, cycles)
    spans = zip(below.tolist(), lo.tolist(), (lo + received[cycles]).tolist())

    signatures: list[PulseSignature] = []
    buckets: dict[tuple, list[int]] = {}
    ids = np.full(int(slot_class.max(initial=-1)) + 1, -1)
    results = zip(cell_class[first].tolist(), _cycle_results(table, cycles), spans)
    for c, result, (flip, a, b) in results:
        if flip:
            at = order[a:b]
            receptions = zip(swapped[at].tolist(), mult[at].tolist(), offset[at].tolist())
            result = replace(result, receptions=tuple(receptions))
        signature = pulse_signature(params, result)
        bucket = buckets.setdefault(tuple(sorted(signature.per_recipient().items())), [])
        sid = next((i for i in bucket if pulse_equivalent(signatures[i], signature)), None)
        if sid is None:
            signatures.append(signature)
            sid = len(signatures) - 1
            bucket.append(sid)
        ids[c] = sid
    return ids[slot_class].reshape(2, count), tuple(signatures)


def phase_scan(
    params: ModelParams,
    step: float = DEFAULT_SCAN_STEP,
    max_iter: int = DEFAULT_SCAN_MAX_ITER,
    tol: float = DEFAULT_MATCH_TOL,
    workers: int = 1,
) -> PhaseScanResult:
    """Scan the initial-phase square [0,1)^2 on a regular grid: each cell
    starts from eq_init_state, written as its lockstep row (_grid_rows),
    and runs the cycle detector.

    The oscillators are identical, so swapping the free two maps cell (a,
    b)'s start, and with it the whole orbit, onto cell (b, a)'s.  So only
    the triangle theta1 <= theta2 is detected (_scan_triangle), and a cell
    below the diagonal reads the mirror image of its transpose's cycle,
    the same result bit for bit.  The first failing cell in grid order
    lies in the triangle, since its mirror fails too, so the error raised
    is the full grid's.  With workers > 1 the triangle is cut into one span
    per worker, detected on a process pool and gathered in order, so the
    result is identical to a serial run.
    """
    grid, table = _scan_triangle(params, _grid_values(step), max_iter, tol, workers)
    return PhaseScanResult(params, step, max_iter, tol, grid, table, *_intern(params, grid, table))


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
    if volume_method not in ("exact", "montecarlo"):
        raise DomainError(f"unknown volume method {volume_method!r}")
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


def _family_sigmas(params: ModelParams, spec, table: _CycleTable, cycles) -> list[list]:
    """Per given cycle of table, [direct, swapped]: the period-4 family
    point of its first state, in cycle order, that holds one as it stands
    and with the free oscillators swapped (_MIRROR), or None.  A state
    holds sigma = (its first, second and fourth FTD entries) when the
    entries are those of oscillators 0, 1, 2 and 2, the third exactly 0.0,
    sigma is on the family's chain, its _embed_rows are within 1e-7 of
    the state (_row_distance), and scalar membership in spec holds with
    margin -1e-7, on the few rows that pass the rest (membership_many
    rounds otherwise)."""
    tol, n = 1e-7, params.n
    rows = _cycle_rows(table, cycles)
    cycle = np.repeat(np.arange(len(cycles)), table.periods[cycles])
    senders, ftds = _widen(table.senders[rows], 4, n), _widen(table.ftds[rows], 4, 0.0)
    layout = _widen(np.array([[0, 1, 2, 2]]), senders.shape[1], n)
    shaped = _by_row(np.all, senders == layout) & (ftds[:, 2] == 0.0)
    rows, cycle, ftds = rows[shaped], cycle[shaped], ftds[shaped, :4]
    found = [[None, None] for _ in range(len(cycles))]
    for guise, order in enumerate((np.arange(3), _MIRROR)):
        # Oscillator i's first entry is in column i, the reference's in 2 and 3.
        phases, entries = table.phases[rows][:, order], ftds[:, [*order[:2], 2, 3]]
        sigma = tuple(entries[:, [0, 1, 3]].T)
        target = _embed_rows(params, "IR4", sigma)
        near = _row_distance(n, (phases, entries, target[2]), target) <= tol
        hit = np.flatnonzero(_on_chain(params, "IR4", sigma) & near)
        points = map(tuple, entries[hit][:, [0, 1, 3]].tolist())
        for c, point in zip(cycle[hit].tolist(), points):
            if found[c][guise] is None and membership(spec, point, margin=-tol):
                found[c][guise] = point
    return found


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
    _require_nonempty(params, "IR4")
    spec = region_spec(params, "IR4")
    analytic_sigma = sample_interior(params, "IR4", n_samples, seed=seed)
    theta1, theta2 = _ir4_phase_plane(params, analytic_sigma.T)
    analytic = tuple(zip(theta1.tolist(), theta2.tolist()))

    numeric: list[tuple[float, float]] = []
    numeric_orbits = 0
    mirror_orbits = 0
    unidentified = 0
    grid, table = _scan_triangle(params, _grid_values(step), max_iter, DEFAULT_MATCH_TOL, workers)
    count = len(table.periods)
    slots = _slots(grid, count).ravel()
    slots = slots[np.append(np.tile(table.periods, 2), 0)[slots] == 4]
    below = slots >= count
    found = _family_sigmas(params, spec, table, slots - count * below)
    for flip, guises in zip(below.tolist(), found):
        # A mirror's direct guise is its cycle's swapped one.
        mirrored = guises[flip] is None
        sigma = guises[flip ^ mirrored]
        if sigma is None:
            unidentified += 1
            continue
        numeric_orbits += 1
        mirror_orbits += mirrored
        for _ in range(4):
            numeric.append(_ir4_phase_plane(params, sigma))
            sigma = g_map(sigma, params.tau)

    seeded_sigma = sample_interior(params, "IR4", n_samples, seed=seed + 1)
    seeds = _family_source(params, "IR4", seeded_sigma)
    cycle, _, chunks = _detect(params, seeds, 16, DEFAULT_MATCH_TOL)
    table = _cycle_table(params.n, chunks)
    # The seeded cycles' states are only projected, so their phases are read
    # off the table, with no PeriodicityResult built.
    cycle = cycle[cycle >= 0]
    four = cycle[table.periods[cycle] == 4]
    seeded = list(map(tuple, table.phases[_cycle_rows(table, four), :-1].tolist()))
    seeded_orbits = len(four)

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
    trials = []  # (moved, dtheta, dsigma, start) of every trial that runs
    n_refused = 0
    for _ in range(n_trials):
        dtheta = tuple(rng.uniform(-dtheta_max, dtheta_max, size=2))
        dsigma = tuple(rng.uniform(-dsigma_max, dsigma_max, size=3))
        moved = tuple(s + d for s, d in zip(sigma, dsigma))
        theta1, theta2 = (t + d for t, d in zip(_ir4_phase_plane(params, moved), dtheta))
        if not membership(spec, moved) or not (
            0.0 <= theta1 < 1.0 and 0.0 <= theta2 < 1.0
        ):
            n_refused += 1
            continue
        # The canonical state of moved with its free phases nudged.
        ftds = s_embed(params, "IR4", moved).ftds
        trials.append((moved, dtheta, dsigma, network_state((theta1, theta2, 0.0), ftds)))
    distances = intertwining_distances(
        params, [t[0] for t in trials], starts=[t[3] for t in trials]
    )
    failures = []
    for (moved, dtheta, dsigma, start), distance in zip(trials, distances):
        if distance > tol:
            _, _, events = init_engine(params, start).run_until_section(trace=True)
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
        n_run=len(trials),
        n_refused=n_refused,
        max_distance=max(distances, default=0.0),
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
    tol: float = DEFAULT_MATCH_TOL,
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


def _write_csv(path, header_lines: list[str], columns, lines) -> None:
    """A CSV dataset: the header lines, the column names, then lines, the
    rows' texts, each ending in a line break.  No cell holds a comma, a
    quote or a line break, so a row is its cells joined by commas, as
    csv.writer writes it."""
    with open(path, "w", newline="") as fh:
        fh.writelines(line + "\n" for line in [*header_lines, ",".join(columns)])
        fh.writelines(lines)


def _write_json(path, timestamp: str | None, **fields) -> None:
    """A JSON dataset: tool version, timestamp, and each field in its
    plain() form, keys sorted, with the bytes json.dump(sort_keys=True,
    indent=1) writes.  Sequences are written item by item."""
    with open(path, "w") as fh:
        write_json(fh, {"version": __version__, "timestamp": timestamp, **fields})


def _opt(value) -> str:
    return "" if value is None else _fmt(value)


def _fill(template: str, **columns) -> list[str]:
    """template, whose %(name)s markers stand for columns[name], filled with
    each item's texts of the columns in turn."""
    names = re.findall(r"%\((\w+)\)s", template)
    filled = re.sub(r"%\(\w+\)s", "%s", template)
    return list(map(filled.__mod__, zip(*map(columns.__getitem__, names))))


def _scan_parts(result: PhaseScanResult, spec: str, text, pairs, head: str, tail: str) -> tuple:
    """(thetas, heads, tails, slots): the parts a phase-scan writer joins
    into each cell's text.  thetas holds the grid values' texts, slots per
    grid row its cells' slots (_slots), and heads[s] and tails[s] slot s's
    head and tail templates filled (_fill) with its fields' texts: numbers
    by number_texts with spec, periodic and empty fields by text, and the
    projection by pairs(period), a %s per coordinate.  A head is made once
    per head key (projection group, which fixes the period; orbit period
    bits; signature id), a tail once per transient; the no-cycle slot, the
    last, has its own of each."""
    table = result.table
    group, first = result._projections
    periods = np.tile(table.periods, 2)
    # Each group's first slot's points; first increases, as the groups do.
    at = np.repeat(np.isin(np.arange(len(periods)), first), periods)
    coords, code = number_texts(_slot_points(table)[at].ravel(), spec)
    made = {size: pairs(size) for size in set(periods[first].tolist())}
    projections = "\0".join(map(made.__getitem__, periods[first].tolist()))
    projections = (projections % tuple(map(coords.__getitem__, code.tolist()))).split("\0")
    sizes, size = number_texts(periods, spec)
    orbits, orbit = number_texts(np.tile(table.orbits, 2), spec)
    sids, sid = number_texts(result.signature_ids.ravel(), spec)
    # Ranked after two fields, so no key exceeds the slot count squared.
    key = np.unique(group * len(orbits) + orbit, return_inverse=True)[1] * len(sids) + sid
    _, one, head_of = np.unique(key, return_index=True, return_inverse=True)
    transients, transient = number_texts(np.tile(table.transients, 2), spec)
    yes, no, none = text(True), text(False), text(None)
    tails = _fill(
        tail, periodic=[yes] * len(transients) + [no], transient_iters=[*transients, none]
    )
    heads = _fill(
        head,
        periodic=[yes] * len(one) + [no],
        poincare_period=[*map(sizes.__getitem__, size[one].tolist()), none],
        orbit_period=[*map(orbits.__getitem__, orbit[one].tolist()), none],
        signature_id=[*map(sids.__getitem__, sid[one].tolist()), none],
        projection=[*map(projections.__getitem__, group[one].tolist()), pairs(0)],
    )
    thetas, code = number_texts(_grid_values(result.step), spec)
    return (
        list(map(thetas.__getitem__, code.tolist())),
        [*map(heads.__getitem__, head_of.tolist()), heads[-1]],
        [*map(tails.__getitem__, transient.tolist()), tails[-1]],
        _slots(result.grid, len(table.periods)).tolist(),
    )


def write_phase_scan_csv(result: PhaseScanResult, path, timestamp: str | None = None) -> None:
    """One row per grid cell; projection points are semicolon-joined
    "x y" pairs so the cell needs no quoting.  Each line is joined from
    _scan_parts, one grid row at a time."""
    thetas, heads, tails, slots = _scan_parts(
        result,
        "%.17g",
        _opt,
        lambda size: ";".join(["%s %s"] * size),
        "%(poincare_period)s,%(orbit_period)s,%(signature_id)s,%(projection)s",
        "%(periodic)s,%(transient_iters)s,",
    )
    lines = (
        "".join([row + theta + "," + tails[s] + heads[s] + "\n" for theta, s in zip(thetas, cells)])
        for row, cells in zip((theta1 + "," for theta1 in thetas), slots)
    )
    _write_csv(path, dataset_header(result.config_dict(), timestamp=timestamp), _SCAN_FIELDS, lines)


def write_phase_scan_json(result: PhaseScanResult, path, timestamp: str | None = None) -> None:
    """The phase scan as JSON; a phase scan draws no random numbers, so its
    seed is null.  ScanRecord's template is cut at theta1 and theta2 into
    a head and a tail, and each record is joined from _scan_parts, one grid
    row at a time, as one batch of write_json."""
    head, rest = item_template(ScanRecord).split("%(theta1)s")
    mid, tail = rest.split("%(theta2)s")
    thetas, heads, tails, slots = _scan_parts(result, "%r", value_text, pairs_template, head, tail)
    records = (
        [heads[s] + row + theta + tails[s] for theta, s in zip(thetas, cells)]
        for row, cells in zip((theta1 + mid for theta1 in thetas), slots)
    )
    _write_json(
        path,
        timestamp,
        config=result.config_dict(),
        seed=None,
        signatures=result.signatures,
        records=records,
    )


def write_param_scan_csv(
    result: ParamScanResult, path, timestamp: str | None = None
) -> None:
    exists = [f"exists_{k.lower()}" for k in KINDS]
    volumes = [f"volume_{k.lower()}" for k in KINDS]
    lines = (
        f"{_fmt(r.eps)},{_fmt(r.tau)},"
        + ",".join([str(int(r.exists[k])) for k in KINDS] + [_opt(r.volumes[k]) for k in KINDS])
        + "\n"
        for r in result.records
    )
    _write_csv(
        path,
        dataset_header(result.config_dict(), seed=result.seed, timestamp=timestamp),
        ["eps", "tau"] + exists + volumes,
        lines,
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
    # Nearly every point differs, so its cells are formatted one by one.
    lines = (
        f"{label},{_fmt(x)},{_fmt(y)}\n"
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
        lines,
    )


def write_projection_json(
    report: ProjectionCompareReport, path, timestamp: str | None = None
) -> None:
    _write_json(path, timestamp, **report._fields(False))


# -- plot-script emitters ----------------------------------------------------------


def _gp_string(text: str) -> str:
    """text as a gnuplot single-quoted string, which writes ' as ''.  Such
    a string cannot hold a line break, so one raises DomainError."""
    if "\n" in text or "\r" in text:
        raise DomainError(f"a gnuplot string cannot hold a line break, got {text!r}")
    return "'" + text.replace("'", "''") + "'"


def emit_phase_scan_plot(csv_path: str, image_path: str = "phase_scan.png") -> str:
    """Gnuplot commands for a period-colored map of the scan grid."""
    return "\n".join(
        [
            "set datafile separator ','",
            "set terminal pngcairo size 900,800",
            f"set output {_gp_string(image_path)}",
            "set xlabel 'theta_1'",
            "set ylabel 'theta_2'",
            "set xrange [0:1]",
            "set yrange [0:1]",
            "set cblabel 'Poincare period'",
            "set cbrange [1:5]",
            "set palette maxcolors 5",
            f"plot {_gp_string(csv_path)} using 1:2:5 with points pt 5 ps 0.6 palette notitle",
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
            f"set output {_gp_string(image_path)}",
            "set xlabel 'epsilon'",
            "set ylabel 'tau'",
            "set cbrange [0:1]",
            "unset colorbox",
            f"plot {_gp_string(csv_path)} using 1:2:{column} with points pt 5 ps 1.2 palette notitle",
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
            f"set output {_gp_string(image_path)}",
            "set xlabel 'theta_1'",
            "set ylabel 'theta_2'",
            f"plot {_gp_string(csv_path)} using (strcol(1) eq 'analytic' ? $2 : NaN):3 "
            "with points pt 7 ps 0.5 lc rgb '#9ecae1' title 'analytic', \\",
            f"     {_gp_string(csv_path)} using (strcol(1) eq 'scan' ? $2 : NaN):3 "
            "with points pt 7 ps 0.7 lc rgb '#d62728' title 'scan', \\",
            f"     {_gp_string(csv_path)} using (strcol(1) eq 'seeded' ? $2 : NaN):3 "
            "with points pt 6 ps 0.7 lc rgb '#2ca02c' title 'seeded'",
            "",
        ]
    )

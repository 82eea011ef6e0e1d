"""Families of isochronous section states, built analytically.

Each family lives in a low-dimensional space of firing-time distances
(sigma), cut out by strict ordering constraints plus closed bounds on a
handful of affine functionals of sigma.  Every point of a family embeds
into a canonical section state whose orbit is periodic with a fixed
Poincare period (3, 4, or 5 section returns), and within one family all
orbits share the same pulse signature.

Everything here is affine in sigma once the model parameters are fixed,
so the families are convex polytopes: membership, volume (by vertex
enumeration or Monte Carlo), sampling, and the self-map of the period-4
family are all exact, cheap computations.  A simulation-backed oracle
cross-checks the analytic picture against the event engine.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._serial import Record, rows
from .engine import NetworkState, network_state
from .model import (
    DomainError,
    ModelParams,
    jump_coeffs,
    trigger_threshold,
)
from .poincare import (
    NotPeriodic,
    PeriodicityResult,
    _section_rows,
    detect_periodicity,  # noqa: F401  (bound here for perfbench/tracer.py)
    detect_periodicity_many,
    poincare_map,  # noqa: F401  (bound here for perfbench/tracer.py)
    pulse_equivalent,
    pulse_signature,
    require_section_state,
)

_MC_SHARD = 100_000

#: Rows per LockstepEngine in intertwining_distances.  An engine's due
#: mask (rows x pulses x oscillators) and per-step log grow with its rows:
#: at 20,000 rows the check's tracemalloc peak is about 34 MiB as one
#: engine and about 3 MiB in blocks of 1000.
_INTERTWINING_BLOCK = 1000


@dataclass(frozen=True)
class Functional:
    """Affine functional of sigma with closed bounds: lower <= F <= upper."""

    label: str
    weights: tuple[float, ...]
    offset: float
    lower: float
    upper: float = 1.0

    def value(self, sigma) -> float:
        return math.fsum(w * s for w, s in zip(self.weights, sigma)) + self.offset

    __call__ = value


@dataclass(frozen=True)
class RegionSpec(Record):
    """One family's constraint system in sigma-space.

    orderings are strict halfspaces (weights . sigma + offset > 0);
    functionals carry their own closed bounds.
    """

    kind: str
    dim: int
    labels: tuple[str, ...]
    tau: float
    orderings: tuple[tuple[tuple[float, ...], float], ...]
    functionals: tuple[Functional, ...]

    _reshape = {"orderings": rows("weights", "offset")}


def _chain_orderings(dim: int, tau: float, order: tuple[int, ...]) -> tuple:
    """Strict constraints 0 < sigma[order[0]] < ... < sigma[order[-1]] < tau
    as halfspaces (weights, offset) with weights . sigma + offset > 0."""
    rows = []
    first = [0.0] * dim
    first[order[0]] = 1.0
    rows.append((tuple(first), 0.0))
    for lo, hi in zip(order, order[1:]):
        w = [0.0] * dim
        w[hi] = 1.0
        w[lo] = -1.0
        rows.append((tuple(w), 0.0))
    last = [0.0] * dim
    last[order[-1]] = -1.0
    rows.append((tuple(last), tau))
    return tuple(rows)


def _jump1(params: ModelParams, theta):
    """Phase after one unit pulse, jump(params, theta, eps_hat) bit for bit;
    theta is a phase or a column of phases."""
    a, c = jump_coeffs(params, 1)
    return a * theta + c


@dataclass(frozen=True)
class Family:
    """One family of isochronous section states, declared once.

    labels           names of the sigma coordinates
    order            coordinate indices from smallest to largest: the strict
                     chain 0 < sigma[order[0]] < ... < sigma[order[-1]] < tau
    poincare_period  section returns per cycle of a generic member
    period_delays    orbit period of a generic member, in units of tau
    functionals      (a, c, tau, h1, h2) -> rows (weights, offset, lower) of
                     the bounded functionals F1, F2, ..., each <= 1; a and c
                     are the single-pulse jump coefficients, h1 and h2 the
                     single- and double-pulse trigger thresholds
    embed            (params, sigma) -> (phases, ftds) of the canonical
                     section state of sigma; sigma may hold coordinate
                     columns, and then so do phases and ftds
    center_value     (params, center) -> the value every bounded functional
                     takes at the family center
    locked_pair      oscillators 1 and 2 share raw phase and firing memory
    """

    labels: tuple[str, ...]
    order: tuple[int, ...]
    poincare_period: int
    period_delays: int
    functionals: Callable[[float, float, float, float, float], tuple]
    embed: Callable[[ModelParams, tuple], tuple]
    center_value: Callable[[ModelParams, tuple], float]
    locked_pair: bool = False

    @property
    def dim(self) -> int:
        return len(self.order)


FAMILIES: dict[str, Family] = {
    # Oscillators 1 and 2 locked together; three functionals are bounded
    # below by the single-pulse trigger threshold and three by the
    # double-pulse one.
    "IR3": Family(
        labels=("sigma1", "sigma3"),
        order=(0, 1),
        poincare_period=3,
        period_delays=2,
        functionals=lambda a, c, tau, h1, h2: (
            ((a, -1.0), c + tau, h1),
            ((-1.0, 1.0 - a), a * tau + c, h1),
            ((1.0 - a, a), c, h1),
            ((0.0, 1.0), 0.0, h2),
            ((-1.0, 0.0), tau, h2),
            ((1.0, -1.0), tau, h2),
        ),
        embed=lambda p, s: ((s[0], s[0], 0.0), ((s[0],), (s[0],), (0.0, s[1]))),
        center_value=lambda p, c: _jump1(p, c[0]) + c[0],
        locked_pair=True,
    ),
    "IR4": Family(
        labels=("sigma1", "sigma2", "sigma3"),
        order=(1, 0, 2),
        poincare_period=4,
        period_delays=3,
        functionals=lambda a, c, tau, h1, h2: (
            ((a, 0.0, -1.0), c + tau, h1),
            ((-1.0, a, 1.0 - a), a * tau + c, h1),
            ((1.0 - a, -1.0, 0.0), a * tau + c, h1),
            ((0.0, 1.0 - a, a), c, h1),
        ),
        embed=lambda p, s: (
            (_jump1(p, s[0]), s[1], 0.0),
            ((s[0],), (s[1],), (0.0, s[2])),
        ),
        center_value=lambda p, c: _jump1(p, c[0]) + c[1],
    ),
    # Oscillator 2 keeps two firing memories, sigma_2a and sigma_2b.
    "IR5": Family(
        labels=("sigma1", "sigma2a", "sigma2b", "sigma3"),
        order=(1, 0, 3, 2),
        poincare_period=5,
        period_delays=3,
        functionals=lambda a, c, tau, h1, h2: (
            ((0.0, a, 0.0, -1.0), c + tau, h1),
            ((-1.0, 0.0, 1.0 - a, 0.0), a * tau + c, h1),
            ((0.0, -1.0, a, 1.0 - a), c, h1),
            ((1.0 - a, 0.0, 0.0, a), c, h1),
            ((a, 1.0 - a, -1.0, 0.0), c + tau, h1),
        ),
        embed=lambda p, s: (
            (_jump1(p, s[0] - s[1]) + s[1], _jump1(p, s[1]), 0.0),
            ((s[0],), (s[1], s[2]), (0.0, s[3])),
        ),
        center_value=lambda p, c: _jump1(p, c[1]) + c[0],
    ),
}

KINDS = tuple(FAMILIES)


def _family(kind: str) -> Family:
    try:
        return FAMILIES[kind]
    except KeyError:
        raise DomainError(f"unknown region kind {kind!r}, expected one of {KINDS}")


def region_spec(params: ModelParams, kind: str) -> RegionSpec:
    """The family's constraint system at these parameters ("IR3" | "IR4" |
    "IR5"): its ordering chain and its bounded functionals F1, F2, ..."""
    family = _family(kind)
    a, c = jump_coeffs(params, 1)
    tau = params.tau
    rows = family.functionals(
        a, c, tau, trigger_threshold(params, 1), trigger_threshold(params, 2)
    )
    return RegionSpec(
        kind=kind,
        dim=family.dim,
        labels=family.labels,
        tau=tau,
        orderings=_chain_orderings(family.dim, tau, family.order),
        functionals=tuple(
            Functional(f"F{i}", weights, offset, lower)
            for i, (weights, offset, lower) in enumerate(rows, 1)
        ),
    )


# -- centers and existence ---------------------------------------------------


def region_center(kind: str, tau: float) -> tuple[float, ...]:
    """The family center: its k-th smallest coordinate is (k+1)*tau/(dim+1)."""
    family = _family(kind)
    center = [0.0] * family.dim
    for k, i in enumerate(family.order):
        center[i] = (k + 1) * tau / (family.dim + 1)
    return tuple(center)


def region_exists(params: ModelParams, kind: str) -> bool:
    """Closed double inequality: trigger threshold <= center value <= 1.

    The center value is what every bounded functional evaluates to at the
    family center, so this is exactly "the center is a member" (for the
    period-3 family the double-pulse bounds follow from the single-pulse
    one; see the membership equivalence test).
    """
    if params.tau <= 0.0:
        return False
    v = _family(kind).center_value(params, region_center(kind, params.tau))
    return trigger_threshold(params, 1) <= v <= 1.0


# -- membership ---------------------------------------------------------------


def membership(spec: RegionSpec, sigma, margin: float = 0.0) -> bool:
    """True iff sigma satisfies every ordering strictly (slack > margin)
    and every functional within its closed bounds shrunk by margin."""
    if len(sigma) != spec.dim:
        raise DomainError(f"sigma must have {spec.dim} components, got {len(sigma)}")
    for w, w0 in spec.orderings:
        if not sum(wi * si for wi, si in zip(w, sigma)) + w0 > margin:
            return False
    for f in spec.functionals:
        if not f.lower + margin <= f.value(sigma) <= f.upper - margin:
            return False
    return True


def membership_margin(spec: RegionSpec, sigma) -> float:
    """Smallest constraint slack at sigma (positive strictly inside,
    negative outside, 0 on the boundary)."""
    slacks = [
        sum(wi * si for wi, si in zip(w, sigma)) + w0 for w, w0 in spec.orderings
    ]
    for f in spec.functionals:
        v = f.value(sigma)
        slacks.append(v - f.lower)
        slacks.append(f.upper - v)
    return min(slacks)


def membership_many(spec: RegionSpec, sigmas: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Vectorized membership over an (n, dim) array of sigma points, one matmul
    per constraint: a stacked matmul rounds differently, so hit counts would move.
    A row holding +-inf or NaN is outside, without a warning (a zero weight
    times inf is NaN, and NaN compares False)."""
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 2 or sigmas.shape[1] != spec.dim:
        raise DomainError(f"sigmas must have shape (rows, {spec.dim}), got {sigmas.shape}")
    ok = np.ones(len(sigmas), dtype=bool)
    with np.errstate(invalid="ignore"):
        for w, w0 in spec.orderings:
            ok &= sigmas @ np.asarray(w) + w0 > margin
        for f in spec.functionals:
            v = sigmas @ np.asarray(f.weights) + f.offset
            ok &= (v >= f.lower + margin) & (v <= f.upper - margin)
    return ok


# -- the period-4 self-map ----------------------------------------------------


def g_map(sigma, tau: float) -> tuple[float, float, float]:
    """Section-to-section update of the period-4 family's coordinates:
    (sigma_3 - sigma_2, sigma_1 - sigma_2, tau - sigma_2)."""
    s1, s2, s3 = sigma
    return (s3 - s2, s1 - s2, tau - s2)


@dataclass(frozen=True)
class AffineMap:
    """g as integer matrix plus offset: g(sigma) = L sigma + offset.

    L has order 4 (exactly, in integer arithmetic); center is its unique
    fixed point; points of center + t * line_direction are fixed by g^2.
    """

    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[float, ...]
    center: tuple[float, ...]
    line_direction: tuple[int, ...]

    def __call__(self, sigma) -> tuple[float, ...]:
        return tuple(
            sum(m * s for m, s in zip(row, sigma)) + o
            for row, o in zip(self.matrix, self.offset)
        )


def g_algebra(tau: float) -> AffineMap:
    if tau <= 0.0:
        raise DomainError(f"delay tau must be positive, got {tau}")
    return AffineMap(
        matrix=((0, -1, 1), (1, -1, 0), (0, -1, 0)),
        offset=(0.0, 0.0, tau),
        center=region_center("IR4", tau),
        line_direction=(0, 1, 1),
    )


# -- embeddings into section states -------------------------------------------


def _on_chain(params: ModelParams, kind: str, sigma):
    """Whether sigma satisfies its family's strict chain
    0 < sigma[order[0]] < ... < sigma[order[-1]] < tau; on coordinate
    columns, one answer per row."""
    chain = (0.0, *(sigma[i] for i in FAMILIES[kind].order), params.tau)
    ok = True
    for lo, hi in zip(chain, chain[1:]):
        ok = ok & (lo < hi)
    return ok


def _require_chain(params: ModelParams, kind: str, sigma) -> None:
    family = _family(kind)
    if len(sigma) != family.dim:
        raise DomainError(f"{kind} needs {family.dim} coordinates, got {len(sigma)}")
    if not _on_chain(params, kind, sigma):
        values = tuple(sigma[i] for i in family.order) + (params.tau,)
        names = [family.labels[i] for i in family.order] + ["tau"]
        raise DomainError(
            f"{kind} ordering violated: need 0 < "
            + " < ".join(names)
            + f", got {values}"
        )


def s_embed(params: ModelParams, kind: str, sigma) -> NetworkState:
    """Canonical section state of a family point: the reference oscillator
    has just fired, and every firing memory is a sigma coordinate.

    For the period-3 family this state is not on the closed orbit — the
    locked pair still has one reception to absorb — so orbits started here
    carry a transient, and from part of the region's interior that
    transient escapes to the synchronous orbit rather than settling on the
    cycle.  Use cycle_state for the exact on-orbit state.
    """
    _require_chain(params, kind, sigma)
    phases, ftds = FAMILIES[kind].embed(params, sigma)
    return network_state(phases=phases, ftds=ftds)


def _embed_rows(params: ModelParams, kind: str, cols) -> tuple:
    """s_embed of the points whose coordinate columns are cols, as
    lockstep rows: phases, FTD entries ordered by sender and then
    ascending, and their senders.  No chain check."""
    phases, ftds = FAMILIES[kind].embed(params, cols)
    size = len(cols[0])

    def stack(values) -> np.ndarray:
        return np.column_stack([np.broadcast_to(v, size) for v in values])

    entries = np.concatenate([np.sort(stack(row), axis=1) for row in ftds], axis=1)
    senders = np.repeat(np.arange(len(ftds)), [len(row) for row in ftds])
    return stack(phases), entries, np.tile(senders, (size, 1))


def cycle_state(params: ModelParams, kind: str, sigma) -> NetworkState:
    """Section state exactly on the periodic orbit indexed by sigma.

    For the period-4 and period-5 families this is the canonical embedding
    itself.  The period-3 family's canonical map places the locked pair at
    the raw phase sigma_1, which is one pair-reception short of the closed
    orbit: on the orbit the pair has already absorbed that pulse and sits
    at the pulse-adjusted phase.  Orbits from the raw state usually reach
    the cycle after a short transient, but from part of the region's
    interior they collapse onto the synchronous orbit instead, so exact
    verification must start here.
    """
    state = s_embed(params, kind, sigma)
    if not FAMILIES[kind].locked_pair:
        return state
    theta = _jump1(params, state.phases[0])
    return network_state(phases=(theta, theta, 0.0), ftds=state.ftds)


# -- checks of the period-4 self-map -------------------------------------------


def intertwining_distances(params: ModelParams, sigmas, starts=None) -> list[float]:
    """For each period-4 point sigma (a row of three coordinates), the
    state_distance between one poincare_map return from starts[i]
    (default: the canonical state of sigma) and the canonical state of
    g(sigma).  The section map intertwines g exactly when every distance
    is at rounding level.

    The returns run in blocks of rows on a LockstepEngine and the states
    are compared as rows, so every distance is the one the per-point loop
    gives.  Given starts must be one per point, or DomainError is raised
    before any return runs.  If a point fails, the error that loop raises
    first is raised: for the first failing point, its chain check, its
    start's require_section_state, its return, then the chain check of
    g(sigma).
    """
    from .lockstep import LockstepEngine, _bad_rows, _row_distance

    sigmas = np.asarray(sigmas, dtype=float)
    if starts is not None and len(starts) != len(sigmas):
        raise DomainError(f"got {len(starts)} starts for {len(sigmas)} points")
    if not len(sigmas):
        return []
    if sigmas.ndim != 2 or sigmas.shape[1] != 3:
        raise DomainError(f"IR4 needs rows of 3 coordinates, got shape {sigmas.shape}")
    n, tau = params.n, params.tau

    distances: list[float] = []
    for lo in range(0, len(sigmas), _INTERTWINING_BLOCK):
        block = sigmas[lo : lo + _INTERTWINING_BLOCK]
        cols, size = tuple(block.T), len(block)
        # stop is the first row whose start fails; only the rows before it run.
        if starts is None:
            rows = _embed_rows(params, "IR4", cols)
            bad = ~_on_chain(params, "IR4", cols) | _bad_rows(params, *rows)
            stop = int(np.argmax(bad)) if bad.any() else size
            rows = tuple(a[:stop] for a in rows)
        else:
            rows, errors = _section_rows(params, starts[lo : lo + size])
            stop = min(errors, default=size)
        out = LockstepEngine(params, *rows).run_until_section()
        targets = g_map(cols, tau)
        on_chain = _on_chain(params, "IR4", targets)[:stop]
        off_chain = size if on_chain.all() else int(np.argmin(on_chain))
        ran_out = min(out.errors, default=size)
        first = min(stop, ran_out, off_chain)
        if first < size:
            # The per-point loop's error: the first failing point's first
            # failing check.
            sigma = tuple(block[first].tolist())
            if first == ran_out:
                raise out.errors[first]
            if first == off_chain:
                s_embed(params, "IR4", g_map(sigma, tau))
            if starts is not None:
                raise errors[first]
            require_section_state(params, s_embed(params, "IR4", sigma))
        target = _embed_rows(params, "IR4", targets)
        distances += _row_distance(n, (out.phases, out.ftds, out.senders), target).tolist()
    return distances


def g_algebra_deviation(tau: float, points, line_offsets) -> float:
    """Worst error of three identities of g at tau: g^4 fixes every row of
    points, g fixes the center, and g^2 fixes center + t * line_direction
    for every t in line_offsets.  g acts on coordinate columns, so each
    identity is one pass over arrays."""
    algebra = g_algebra(tau)
    t = np.asarray(line_offsets, dtype=float)
    line = tuple(c + t * d for c, d in zip(algebra.center, algebra.line_direction))
    worst = 0.0
    for power, cols in (
        (4, tuple(np.asarray(points, dtype=float).T)),
        (1, algebra.center),
        (2, line),
    ):
        cur = cols
        for _ in range(power):
            cur = g_map(cur, tau)
        worst = max(worst, float(np.max(np.abs(np.subtract(cur, cols)), initial=0.0)))
    return worst


# -- sampling ------------------------------------------------------------------


#: Compare-exchange pairs that sort 0 to 4 wires (Knuth, TAOCP vol. 3, 5.3.4).
_NETWORKS = ((), (), ((0, 1),), ((0, 1), (1, 2), (0, 1)), ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)))


def _network_sort(x: np.ndarray, wires: tuple[int, ...]) -> np.ndarray:
    """Sort each row of x in place: column wires[k] gets the k-th smallest."""
    buf = np.empty(len(x))
    for i, j in _NETWORKS[len(wires)]:
        lo, hi = x[:, wires[i]], x[:, wires[j]]
        np.minimum(lo, hi, out=buf)
        np.maximum(lo, hi, out=hi)
        lo[...] = buf
    return x


def _ordering_simplex_sample(rng: np.random.Generator, kind: str, tau: float, n: int) -> np.ndarray:
    """Uniform points of the ordering simplex: dim uniforms on (0, tau) a row,
    sorted in place by a compare-exchange network wired in the family's chain
    order.  Column order[k] gets the k-th smallest value, and comparators only
    move values, so rows equal np.sort's scattered into chain order, bit for bit."""
    order = _family(kind).order
    return _network_sort(rng.uniform(0.0, tau, size=(n, len(order))), order)


def sample_interior(
    params: ModelParams,
    kind: str,
    n: int,
    seed: int = 0,
    margin: float = 1e-9,
    max_draws: int = 10_000_000,
) -> np.ndarray:
    """n interior points of the family, by rejection from the ordering
    simplex; every returned point clears all constraints by margin.  An
    empty family raises RuntimeError before the first draw."""
    if n < 0:
        raise DomainError(f"sample count must be >= 0, got {n}")
    spec = region_spec(params, kind)
    if not region_exists(params, kind):
        raise RuntimeError(
            f"{kind} is empty at (eps={params.eps}, tau={params.tau}); "
            "there are no interior points to sample"
        )
    rng = np.random.default_rng(seed)
    out = [np.empty((0, spec.dim))]
    got = 0
    drawn = 0
    while got < n:
        if drawn >= max_draws:
            raise RuntimeError(
                f"drew {drawn} candidates but found only {got}/{n} interior "
                f"points of {kind}; the region is too thin at these parameters"
            )
        chunk = min(max(4 * (n - got), 1024), max_draws - drawn)
        drawn += chunk
        cand = _ordering_simplex_sample(rng, kind, params.tau, chunk)
        keep = cand[membership_many(spec, cand, margin=margin)]
        if len(keep):
            out.append(keep)
            got += len(keep)
    return np.concatenate(out)[:n]


# -- volume --------------------------------------------------------------------


@dataclass(frozen=True)
class VolumeReport(Record):
    """Region volume with provenance: method, budget, seed, uncertainty."""

    volume: float
    stderr: float
    method: str
    samples: int | None = None
    seed: int | None = None
    degenerate: bool = False
    vertex_count: int | None = None


def _halfspaces(spec: RegionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Closure of the region as rows A sigma <= b."""
    rows_a: list[tuple[float, ...]] = []
    rows_b: list[float] = []
    for w, w0 in spec.orderings:
        rows_a.append(tuple(-wi for wi in w))
        rows_b.append(w0)
    for f in spec.functionals:
        rows_a.append(f.weights)
        rows_b.append(f.upper - f.offset)
        rows_a.append(tuple(-wi for wi in f.weights))
        rows_b.append(f.offset - f.lower)
    return np.asarray(rows_a), np.asarray(rows_b)


@cache
def _subset_index(rows: int, dim: int) -> np.ndarray:
    """Every dim-subset of range(rows), one per row in combinations order
    (read-only: the cached table is shared by every call)."""
    idx = np.array(list(itertools.combinations(range(rows), dim)))
    idx.setflags(write=False)
    return idx


def _enumerate_vertices(spec: RegionSpec, feas_tol: float = 1e-9) -> np.ndarray:
    """All vertices of the closed polytope: solve every dim-subset of the
    halfspace boundaries in one stacked call, keep feasible solutions, dedupe.

    ``det != 0`` drops exactly the subsets whose LU factorization (the one
    ``solve`` runs) has a zero pivot.
    """
    a, b = _halfspaces(spec)
    dim = spec.dim
    idx = _subset_index(len(a), dim)
    sub_a, sub_b = a[idx], b[idx]
    ok = np.linalg.det(sub_a) != 0.0
    x = np.linalg.solve(sub_a[ok], sub_b[ok][..., None])[..., 0]
    x = x[np.all(np.isfinite(x), axis=1)]
    x = x[np.all(x @ a.T <= b + feas_tol, axis=1)]
    seen: dict[tuple[int, ...], np.ndarray] = {}
    for row in x:
        key = tuple(int(round(v * 1e10)) for v in row)
        seen.setdefault(key, row)
    if not seen:
        return np.empty((0, dim))
    return np.vstack(list(seen.values()))


def _fan_volume(vertices: np.ndarray) -> float:
    """Volume of the convex hull of the vertices, summed as a fan of
    simplices from one vertex over the hull's boundary facets, in facet
    order from 0.0 (``sum`` of a list, so the rounding is a plain loop's)."""
    # Imported at call time: perfbench/tracer.py patches scipy.spatial.ConvexHull.
    from scipy.spatial import ConvexHull

    hull = ConvexHull(vertices)
    apex = vertices[hull.vertices[0]]
    dets = np.linalg.det(vertices[hull.simplices] - apex)
    return sum(map(abs, dets.tolist())) / math.factorial(vertices.shape[1])


def _volume_exact(spec: RegionSpec) -> VolumeReport:
    from scipy.spatial import QhullError

    vertices = _enumerate_vertices(spec)
    vol = 0.0
    if len(vertices) > spec.dim:
        try:
            vol = float(_fan_volume(vertices))
        except QhullError:
            pass  # vertices exist but span no full-dimensional body
    return VolumeReport(
        volume=vol, stderr=0.0, method="exact",
        degenerate=vol == 0.0, vertex_count=len(vertices),
    )


def _volume_montecarlo(
    spec: RegionSpec, samples: int, seed: int, threads: int = 1
) -> VolumeReport:
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    tau = spec.tau
    simplex_volume = tau**spec.dim / math.factorial(spec.dim)
    if simplex_volume == 0.0:
        return VolumeReport(
            volume=0.0, stderr=0.0, method="montecarlo",
            samples=samples, seed=seed, degenerate=True,
        )

    shard_sizes = [_MC_SHARD] * (samples // _MC_SHARD)
    if samples % _MC_SHARD:
        shard_sizes.append(samples % _MC_SHARD)
    seeds = np.random.SeedSequence(seed).spawn(len(shard_sizes))

    def run_shard(args: tuple[int, np.random.SeedSequence]) -> int:
        size, ss = args
        rng = np.random.default_rng(ss)
        cand = _ordering_simplex_sample(rng, spec.kind, tau, size)
        return int(np.count_nonzero(membership_many(spec, cand)))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(run_shard, zip(shard_sizes, seeds)))
    else:
        hits = sum(run_shard(args) for args in zip(shard_sizes, seeds))

    p = hits / samples
    return VolumeReport(
        volume=p * simplex_volume,
        stderr=simplex_volume * math.sqrt(p * (1.0 - p) / samples),
        method="montecarlo",
        samples=samples,
        seed=seed,
        degenerate=False,
    )


def region_volume(
    spec: RegionSpec,
    method: str = "exact",
    samples: int = 1_000_000,
    seed: int = 0,
    threads: int = 1,
) -> VolumeReport:
    """Volume of the family's polytope.

    method="exact": vertex enumeration over the halfspace system, then a
    simplicial fan over the hull facets; degenerate (empty-interior)
    polytopes report volume 0.  method="montecarlo": uniform sampling of
    the ordering simplex, hit fraction times simplex volume, binomial
    standard error; the sample budget splits into shards with derived
    per-shard seeds and an order-independent integer reduction, so results
    are identical for any thread count.
    """
    if method == "exact":
        return _volume_exact(spec)
    if method == "montecarlo":
        return _volume_montecarlo(spec, samples, seed, threads)
    raise DomainError(f"unknown volume method {method!r}")


# -- simulation-backed oracle ---------------------------------------------------


@dataclass(frozen=True)
class OracleReport(Record):
    """Cross-check of the analytic family against the event engine.

    Every sampled interior point is embedded and iterated; failures carry
    the offending sigma and what went wrong.  The center is reported
    separately: it is the family's known degenerate interior point whose
    orbit can collapse to a shorter cycle.
    """

    kind: str
    n_samples: int
    seed: int
    expected_poincare_period: int
    poincare_period_counts: dict[int, int]
    failures: tuple[tuple[tuple[float, ...], str], ...]
    all_pulse_equivalent: bool
    pair_synchronized: bool | None
    center_poincare_period: int | None
    center_orbit_period: float | None

    _reshape = {"failures": rows("sigma", "reason")}
    _extra = ("ok",)

    @property
    def ok(self) -> bool:
        return not self.failures and self.all_pulse_equivalent


def region_oracle(
    params: ModelParams,
    kind: str,
    n_samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
    max_iter: int = 64,
) -> OracleReport:
    """Sample interior points, simulate each one's on-orbit section state
    (cycle_state), and verify the family's claims exactly: zero transient,
    the expected minimal Poincare period, the expected orbit period,
    pairwise pulse equivalence, and — for the period-3 family — that the
    locked pair stays locked around the whole cycle.  The family's center
    is detected in the same batch, after the samples."""
    if not region_exists(params, kind):
        raise DomainError(
            f"{kind} is empty at (eps={params.eps}, tau={params.tau}); "
            "the oracle needs a nonempty region"
        )
    family = FAMILIES[kind]
    expected = family.poincare_period
    expected_period = family.period_delays * params.tau
    sigmas = sample_interior(params, kind, n_samples, seed=seed)

    failures: list[tuple[tuple[float, ...], str]] = []
    counts: dict[int, int] = {}
    signatures = []
    pair_ok: bool | None = True if family.locked_pair else None

    samples = [tuple(float(v) for v in row) for row in sigmas]
    starts = [cycle_state(params, kind, s) for s in samples]
    starts.append(cycle_state(params, kind, region_center(kind, params.tau)))
    *results, center_result = detect_periodicity_many(params, starts, max_iter=max_iter, tol=tol)
    for sigma, result in zip(samples, results):
        if isinstance(result, NotPeriodic):
            failures.append((sigma, f"no cycle within {max_iter} iterations"))
            continue
        counts[result.poincare_period] = counts.get(result.poincare_period, 0) + 1
        if result.transient_iters != 0:
            failures.append(
                (sigma, f"cycle state needed a transient of {result.transient_iters}")
            )
            continue
        if result.poincare_period != expected:
            failures.append(
                (sigma, f"poincare period {result.poincare_period} != {expected}")
            )
            continue
        if abs(result.orbit_period - expected_period) > tol:
            failures.append(
                (
                    sigma,
                    f"orbit period {result.orbit_period} != "
                    f"{family.period_delays}*tau",
                )
            )
            continue
        if family.locked_pair and any(
            abs(state.phases[0] - state.phases[1]) > tol for state in result.cycle_states
        ):
            pair_ok = False
            failures.append((sigma, "locked pair drifted apart"))
        signatures.append(pulse_signature(params, result))

    all_equivalent = all(
        pulse_equivalent(signatures[0], s) for s in signatures[1:]
    ) if signatures else False

    center_tp: int | None = None
    center_t: float | None = None
    if isinstance(center_result, PeriodicityResult):
        center_tp = center_result.poincare_period
        center_t = center_result.orbit_period

    return OracleReport(
        kind=kind,
        n_samples=n_samples,
        seed=seed,
        expected_poincare_period=expected,
        poincare_period_counts=counts,
        failures=tuple(failures),
        all_pulse_equivalent=all_equivalent,
        pair_synchronized=pair_ok,
        center_poincare_period=center_tp,
        center_orbit_period=center_t,
    )


# -- projection of the period-4 family to the phase plane -----------------------


def ir4_projection_contains(
    params: ModelParams, theta1: float, theta2: float, tol: float = 1e-6
) -> bool:
    """Exact point test for the projection of the embedded period-4 family
    onto the first two phases.

    theta_1 = jump(sigma_1) inverts to sigma_1, theta_2 is sigma_2, and the
    remaining freedom is sigma_3: every halfspace row of the family is
    affine in sigma_3, so the test intersects the rows' sigma_3 intervals
    and checks the result is nonempty (allowing tol of slack at every
    step)."""
    a, c = jump_coeffs(params, 1)
    sigma1 = (theta1 - c) / a
    sigma2 = theta2
    lo, hi = -math.inf, math.inf
    rows, bounds = _halfspaces(region_spec(params, "IR4"))
    for (w1, w2, w3), bound in zip(rows.tolist(), bounds.tolist()):
        rest = bound - w1 * sigma1 - w2 * sigma2  # need w3 * sigma_3 <= rest
        if abs(w3) < 1e-15:
            if rest < -tol:
                return False
        elif w3 > 0.0:
            hi = min(hi, rest / w3)
        else:
            lo = max(lo, rest / w3)
    return hi - lo > -tol

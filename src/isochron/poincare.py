"""Section-map analysis on the surface "oscillator N just fired".

The section map advances the network from one firing of the reference
oscillator to its next, acting on canonical states.  On top of it sit a
cycle detector (eventually-periodic orbits are the norm here) and a pulse
signature: the per-recipient pattern of reception multiplicities over one
period, which classifies periodic orbits more finely than the period
alone.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, ne, sub

from ._serial import Record
from .engine import (
    COINCIDENCE_TOL,
    NetworkState,
    _engine_from,
    init_engine,  # noqa: F401  (bound here for perfbench/tracer.py)
    is_section_state,
    validate_state,
)
from .model import ModelParams

#: Default tolerance for declaring two section states equal.
DEFAULT_MATCH_TOL = 1e-9


class SectionError(ValueError):
    """A state handed to the section map is not a canonical section state."""


def require_section_state(
    params: ModelParams, state: NetworkState, k: int | None = None
) -> None:
    """Raise SectionError unless oscillator k (default: last) just fired."""
    validate_state(params, state)
    if not is_section_state(state, k):
        kk = state.n if k is None else k + 1
        raise SectionError(
            f"expected phase 0 and a zero firing-time distance for oscillator {kk}"
        )


def poincare_map(
    params: ModelParams,
    state: NetworkState,
    k: int | None = None,
    max_time: float = 100.0,
) -> tuple[NetworkState, float]:
    """One application of the section map: (next section state, return time)."""
    require_section_state(params, state, k)
    eng = _engine_from(params, state)
    new_state, elapsed, _ = eng.run_until_section(k=k, max_time=max_time, record=None)
    return new_state, elapsed


def phase_projection(state: NetworkState) -> tuple[float, ...]:
    """Drop the reference oscillator's phase and all firing-time distances."""
    return state.phases[:-1]


def state_distance(a: NetworkState, b: NetworkState) -> float:
    """Largest componentwise difference between two states.

    FTD rows are kept sorted, so multisets compare elementwise; any shape
    mismatch (oscillator count or row cardinality) is an infinite
    distance.
    """
    if a.n != b.n or any(map(ne, map(len, a.ftds), map(len, b.ftds))):
        return math.inf
    return max(map(abs, map(sub, chain(a.phases, *a.ftds), chain(b.phases, *b.ftds))))


def states_match(a: NetworkState, b: NetworkState, tol: float = DEFAULT_MATCH_TOL) -> bool:
    """Componentwise match of phases and FTD multisets within tol."""
    return state_distance(a, b) <= tol


@dataclass(frozen=True)
class PeriodicityResult(Record):
    """A detected cycle of the section map.

    transient_iters   iterations before the orbit first revisits a state
    poincare_period   minimal cycle length (detected length reduced over
                      its divisors)
    orbit_period      total time of one minimal cycle
    detected_period   raw revisit distance before divisor reduction
    return_times      per-iteration return times over one minimal cycle
    cycle_states      the cycle's section states, each the section map
                      of the one before
    receptions        the cycle's pulse receptions, as in PulseSignature

    periodic is True here and False on NotPeriodic.
    """

    transient_iters: int
    poincare_period: int
    orbit_period: float
    detected_period: int
    return_times: tuple[float, ...]
    cycle_states: tuple[NetworkState, ...]
    receptions: tuple[tuple[int, int, float], ...]

    periodic = True
    _omit = ("cycle_states", "receptions")
    _extra = ("periodic", "periodic_state")

    @property
    def periodic_state(self) -> NetworkState:
        """First state on the cycle."""
        return self.cycle_states[0]


@dataclass(frozen=True)
class NotPeriodic(Record):
    """Report that no revisit was found within the iteration budget."""

    iterations: int
    last_state: NetworkState

    periodic = False
    _extra = ("periodic",)


def _minimal_cycle(
    states: list[NetworkState], j: int, length: int, tol: float
) -> int:
    """Reduce a detected cycle states[j:j+length] to its minimal period by
    testing every divisor (wrapping indices inside the cycle)."""
    for d in range(1, length + 1):
        if length % d:
            continue
        if all(
            states_match(states[j + m], states[j + (m + d) % length], tol)
            for m in range(length)
        ):
            return d
    return length


def _cycle_result(
    transient: int,
    states: list[NetworkState],
    returns: list[float],
    received: list[list[tuple[int, int, float]]],
    tol: float,
) -> PeriodicityResult:
    """The result for an orbit whose state after `transient` returns recurs
    after len(states) more: states, returns and received hold those
    returns' start states, return times and receptions."""
    length = len(states)
    minimal = _minimal_cycle(states, 0, length, tol)
    orbit_period = sum(returns[:minimal])
    # Receptions timed from the cycle start; one at the period boundary
    # belongs to offset 0 of the next pass.
    receptions = []
    cycle_time = 0.0
    for idx in range(minimal):
        for r, m, t in received[idx]:
            offset = cycle_time + t
            if offset >= orbit_period - DEFAULT_MATCH_TOL:
                offset = 0.0
            receptions.append((r, m, offset))
        cycle_time += returns[idx]
    receptions.sort(key=itemgetter(2, 0))
    return PeriodicityResult(
        transient_iters=transient,
        poincare_period=minimal,
        orbit_period=orbit_period,
        detected_period=length,
        return_times=tuple(returns[:minimal]),
        cycle_states=tuple(states[:minimal]),
        receptions=tuple(receptions),
    )


def _check_budget(max_iter: int, tol: float) -> None:
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")


def detect_periodicity(
    params: ModelParams,
    state: NetworkState,
    max_iter: int = 10_000,
    tol: float = DEFAULT_MATCH_TOL,
    max_time_per_return: float = 100.0,
) -> PeriodicityResult | NotPeriodic:
    """Iterate the section map until a previously seen state recurs.

    Each return runs on a fresh engine from the previous return's state, as
    in poincare_map.  All visited states are kept and the newest is compared
    against earlier ones (earliest first), so the reported transient is
    minimal.  The detected revisit distance is then reduced over its
    divisors to the minimal Poincare period; the orbit period sums the
    minimal cycle's return times, and the cycle's states and receptions are
    read from its returns.  After max_iter iterations a NotPeriodic report
    is returned (a result, not an error).
    """
    _check_budget(max_iter, tol)
    require_section_state(params, state)

    states = [state]
    # Sorted view of (first phase, index) pairs for cheap match prefiltering.
    by_phase0: list[tuple[float, int]] = [(state.phases[0], 0)]
    returns: list[float] = []
    received: list[list[tuple[int, int, float]]] = []

    new = state
    for i in range(1, max_iter + 1):
        eng = _engine_from(params, new)
        new, elapsed, got = eng.run_until_section(max_time=max_time_per_return, record="receptions")
        returns.append(elapsed)
        received.append(got)

        lo = bisect.bisect_left(by_phase0, (new.phases[0] - tol, -1))
        hi = bisect.bisect_right(by_phase0, (new.phases[0] + tol, len(states)))
        candidates = sorted(idx for _, idx in by_phase0[lo:hi])
        for j in candidates:
            if states_match(states[j], new, tol):
                return _cycle_result(j, states[j:], returns[j:], received[j:], tol)
        states.append(new)
        bisect.insort(by_phase0, (new.phases[0], i))

    return NotPeriodic(iterations=max_iter, last_state=new)


def detect_periodicity_many(
    params: ModelParams,
    states,
    max_iter: int = 10_000,
    tol: float = DEFAULT_MATCH_TOL,
    max_time_per_return: float = 100.0,
) -> list[PeriodicityResult | NotPeriodic]:
    """detect_periodicity for many starts at once, one result per start.

    The starts' section returns run in lockstep on float64 arrays
    (lockstep.LockstepEngine) and each start's visited states stay in
    arrays, compared by detect_periodicity's rule: the same phase-0
    prefilter bounds, equal FTD row lengths, state_distance <= tol, the
    earliest match first.  Every result is repr-identical to what
    detect_periodicity returns for that start.  If any start raises, the
    error of the first such start (in the given order) is raised.

    At tau <= COINCIDENCE_TOL every fire puts its own pulse due within
    the same timestamp, a cascade the lockstep path hands to the scalar
    engine anyway, so such starts go to detect_periodicity one by one.
    """
    _check_budget(max_iter, tol)
    states = list(states)
    if params.tau <= COINCIDENCE_TOL:
        return [detect_periodicity(params, s, max_iter, tol, max_time_per_return) for s in states]

    import numpy as np

    from .lockstep import LockstepEngine, _widen

    n = params.n
    errors: dict[int, Exception] = {}
    for idx, state in enumerate(states):
        try:
            require_section_state(params, state)
        except ValueError as exc:
            errors[idx] = exc
            del states[idx:]
            break
    count = len(states)
    results: list = [None] * count
    eng = LockstepEngine(params, states)
    oscillators = np.arange(n)

    width = max((sum(map(len, s.ftds)) for s in states), default=0)
    start_ftd = np.zeros((count, width))
    start_snd = np.full((count, width), n)
    for r, s in enumerate(states):
        entries = [(i, x) for i, row in enumerate(s.ftds) for x in row]
        if entries:
            start_snd[r, : len(entries)], start_ftd[r, : len(entries)] = zip(*entries)

    # hist holds, for the start at live[p] after i returns, its phases,
    # FTD entries (by sender, then ascending), FTD row lengths and the
    # time of its i-th return at [i, p]: the first `filled` entries of a
    # first axis that doubles when full.  The receptions of its i-th
    # return are in logs[i - 1], with the starts that ran it.  A start
    # leaves hist when it finishes.
    live = np.arange(count)
    hist = [
        eng.phases[None],
        start_ftd[None],
        np.count_nonzero(start_snd[:, :, None] == oscillators, axis=1)[None],
        np.zeros((1, count)),
    ]
    filled = 1
    logs: list[tuple] = []

    def state_at(p: int, i: int) -> NetworkState:
        """The state of the start at live[p] after i returns."""
        if i == 0:
            return states[int(live[p])]
        rows, lo = [], 0
        ftd = hist[1][i, p].tolist()
        for c in hist[2][i, p].tolist():
            rows.append(tuple(ftd[lo : lo + c]))
            lo += c
        return NetworkState(tuple(hist[0][i, p].tolist()), tuple(rows))

    def received(p: int, i: int) -> list[tuple[int, int, float]]:
        """The receptions of the (i+1)-th return of the start at live[p]."""
        stepped, bounds, recipients, mults, times = logs[i]
        at = bisect.bisect_left(stepped, int(live[p]))
        lo, hi = bounds[at], bounds[at + 1]
        return list(zip(recipients[lo:hi].tolist(), mults[lo:hi].tolist(), times[lo:hi].tolist()))

    for it in range(1, max_iter + 1):
        if not live.size:
            break
        out = eng.run_until_section(max_time=max_time_per_return, record="receptions")
        logs.append(
            (live.tolist(), out.bounds.tolist(), out.recipients, out.multiplicities, out.times)
        )

        width = max(out.ftds.shape[1], hist[1].shape[2])
        hist[1] = _widen(hist[1], width, 0.0)
        new_ftd = _widen(out.ftds, width, 0.0)
        new_cnt = np.count_nonzero(out.senders[:, :, None] == oscillators, axis=1)

        # detect_periodicity's rule: the phase-0 prefilter, then equal row
        # lengths and state_distance <= tol, the earliest match first.
        h_ph, h_ftd, h_cnt = (h[:filled] for h in hist[:3])
        p0 = out.phases[:, 0]
        old_p0 = h_ph[:, :, 0].T
        row, j = np.nonzero((old_p0 >= (p0 - tol)[:, None]) & (old_p0 <= (p0 + tol)[:, None]))
        hit = (h_cnt[j, row] == new_cnt[row]).all(axis=1) & (
            np.maximum(
                np.abs(h_ph[j, row] - out.phases[row]).max(axis=1),
                np.abs(h_ftd[j, row] - new_ftd[row]).max(axis=1, initial=0.0),
            )
            <= tol
        )
        row, first = np.unique(row[hit], return_index=True)
        found = dict(zip(row.tolist(), j[hit][first].tolist()))

        if filled == len(hist[0]):
            hist = [np.concatenate((h, np.empty_like(h))) for h in hist]
        for h, new in zip(hist, (out.phases, new_ftd, new_cnt, out.elapsed)):
            h[filled] = new
        filled += 1

        finishing = range(live.size) if it == max_iter else sorted({*found, *out.errors})
        keep = np.ones(live.size, dtype=bool)
        keep[list(finishing)] = False
        for p in finishing:
            b = int(live[p])
            if p in out.errors:
                errors[b] = out.errors[p]
            elif p in found:
                j = found[p]
                results[b] = _cycle_result(
                    j,
                    [state_at(p, i) for i in range(j, it)],
                    hist[3][j + 1 : it + 1, p].tolist(),
                    [received(p, i) for i in range(j, it)],
                    tol,
                )
            else:
                results[b] = NotPeriodic(iterations=max_iter, last_state=state_at(p, it))
        if errors:
            keep &= live < min(errors)
        if not keep.all():
            live = live[keep]
            hist = [h[:, keep] for h in hist]
            eng.keep(keep)

    if errors:
        raise errors[min(errors)]
    return results


@dataclass(frozen=True)
class PulseSignature(Record):
    """Reception pattern of one periodic cycle.

    receptions lists every pulse reception over one period as
    (recipient index, multiplicity, time offset from the cycle start),
    ordered by offset then recipient.  A reception landing exactly at the
    period boundary belongs to offset 0 of the next pass and is wrapped.
    """

    period: float
    receptions: tuple[tuple[int, int, float], ...]

    _reshape = {
        "receptions": lambda recs: [
            {"recipient": r + 1, "multiplicity": m, "offset": t} for r, m, t in recs
        ]
    }

    def per_recipient(self) -> dict[int, tuple[int, ...]]:
        """Time-ordered multiplicity sequence for each recipient."""
        out: dict[int, list[int]] = {}
        for recipient, mult, _ in self.receptions:
            out.setdefault(recipient, []).append(mult)
        return {r: tuple(ms) for r, ms in out.items()}


def pulse_signature(params: ModelParams, result: PeriodicityResult) -> PulseSignature:
    """The reception pattern the detector recorded; nothing is simulated."""
    return PulseSignature(period=result.orbit_period, receptions=result.receptions)


def pulse_equivalent(a: PulseSignature, b: PulseSignature, tol: float = 1e-9) -> bool:
    """Same period (within tol), same reception count, and per recipient the
    same time-ordered multiplicity sequence."""
    if abs(a.period - b.period) > tol:
        return False
    if len(a.receptions) != len(b.receptions):
        return False
    return a.per_recipient() == b.per_recipient()

"""Section-map analysis on the surface "oscillator N just fired".

The section map advances the network from one firing of the reference
oscillator to its next, acting on canonical states.  On top of it sit a
cycle detector (eventually-periodic orbits are the norm here) and a pulse
signature: the per-recipient pattern of reception multiplicities over one
period, which classifies periodic orbits more finely than the period
alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import ne, sub

from ._serial import Record
from .engine import (
    Engine,
    NetworkState,
    init_engine,  # noqa: F401  (bound here for perfbench/tracer.py)
    is_section_state,
    validate_state,
)
from .model import ModelParams

#: Default tolerance for declaring two section states equal.
DEFAULT_MATCH_TOL = 1e-9


class SectionError(ValueError):
    """A state handed to the section map is not a canonical section state."""


def require_section_state(params: ModelParams, state: NetworkState) -> None:
    """Raise SectionError unless the last oscillator just fired."""
    validate_state(params, state)
    if not is_section_state(state):
        raise SectionError(
            f"expected phase 0 and a zero firing-time distance for oscillator {state.n}"
        )


def poincare_map(params: ModelParams, state: NetworkState) -> tuple[NetworkState, float]:
    """One application of the section map: (next section state, return time)."""
    require_section_state(params, state)
    new_state, elapsed, _ = Engine(params, state).run_until_section()
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


#: Detected cycles as columns, the array stage of cycle assembly (see _cycle_table).
_CycleTable = namedtuple(
    "_CycleTable", "transients periods detected orbits phases ftds senders returns receptions"
)


def _cycle_table(n: int, tol: float, chunks: list[tuple]) -> _CycleTable:
    """The detected cycles of chunks, on arrays for all at once.

    Each chunk holds some cycles as (transients, lengths, phases, ftds,
    senders, returns, when, mult).  Cycle k's orbit revisits,
    after lengths[k] more returns, the state it reached after
    transients[k] returns; its lengths[k] states are consecutive rows of
    the other arrays, in cycle order and chunk after chunk.  A row holds a
    state in lockstep's row layout (phases, FTD entries, their senders),
    then the time (returns[:, 0]) and the deliveries (LockstepReturns' when
    and mult) of the return that leaves it.

    The detected length is reduced over its proper divisors: the least d
    for which every state is within tol of the one d returns on, wrapping
    inside the cycle.  The orbit period sums the minimal cycle's return
    times from the left.  Its receptions are timed from the cycle start,
    a reception at the period boundary counting at offset 0 of the next
    pass, and ordered by offset and then recipient, ties in cycle order.

    The table holds per cycle its transient, its minimal and detected
    periods and its orbit period.  The rows of a cycle's minimal period
    follow the previous cycle's: phases, ftds and senders, and returns,
    the time of the return that leaves each.  receptions are the columns
    (cycle, who, mult, offset), cycle by cycle, each cycle's in order.
    """
    import numpy as np

    from .lockstep import _row_distance, _widen

    def stack(arrays, fill):
        width = max(a.shape[-1] for a in arrays)
        return np.concatenate([_widen(a, width, fill) for a in arrays])

    cols = list(zip(*chunks))
    transients, lengths, phases, returns = (np.concatenate(cols[i]) for i in (0, 1, 2, 5))
    ftds, senders = stack(cols[3], 0.0), stack(cols[4], n)
    when, mult = stack(cols[6], 0.0), stack(cols[7], 0)

    count = len(lengths)
    first = np.cumsum(lengths) - lengths
    cycle = np.repeat(np.arange(count), lengths)
    pos = np.arange(len(cycle)) - first[cycle]

    period = lengths.copy()
    divisors = {d for length in set(lengths.tolist()) for d in range(1, length) if length % d == 0}
    for d in sorted(divisors):
        open_ = (lengths % d == 0) & (period == lengths) & (lengths > d)
        row = np.nonzero(open_[cycle])[0]
        if not row.size:
            continue
        k = cycle[row]
        other = first[k] + (pos[row] + d) % lengths[k]
        states = phases, ftds, senders
        match = _row_distance(n, [c[row] for c in states], [c[other] for c in states]) <= tol
        period[open_ & (np.bincount(k[~match], minlength=count) == 0)] = d

    # clock[k, m]: the time of the minimal cycle's first m returns, summed
    # from the left as sum() does.
    on = pos < period[cycle]
    clock = np.zeros((count, int(period.max(initial=0)) + 1))
    clock[cycle[on], pos[on] + 1] = returns[on, 0]
    np.cumsum(clock, axis=1, out=clock)
    orbit = clock[np.arange(count), period]

    row, slot, who = np.nonzero((mult > 0).transpose(0, 2, 1) & on[:, None, None])
    k = cycle[row]
    offset = clock[k, pos[row]] + when[row, slot]
    offset[offset >= (orbit - DEFAULT_MATCH_TOL)[k]] = 0.0
    order = np.lexsort((who, offset, k))
    return _CycleTable(
        transients=transients,
        periods=period,
        detected=lengths,
        orbits=orbit,
        phases=phases[on],
        ftds=ftds[on],
        senders=senders[on],
        returns=returns[on, 0],
        receptions=(k[order], who[order], mult[row, who, slot][order], offset[order]),
    )


def _cycle_results(table: _CycleTable, cycles) -> list[PeriodicityResult]:
    """The PeriodicityResults of the table's given cycles, in that order:
    the object stage of cycle assembly."""
    import numpy as np

    from .lockstep import _decode

    cycles = np.asarray(cycles, dtype=int)
    rec_cycle, who, mult, offset = table.receptions
    received = np.bincount(rec_cycle, minlength=len(table.periods))
    rows = _ranges((np.cumsum(table.periods) - table.periods)[cycles], table.periods[cycles])
    recs = _ranges((np.cumsum(received) - received)[cycles], received[cycles])
    states = _decode(table.phases[rows], table.ftds[rows], table.senders[rows])
    return_times = table.returns[rows].tolist()
    receptions = list(zip(who[recs].tolist(), mult[recs].tolist(), offset[recs].tolist()))
    results = []
    lo = rec_lo = 0
    columns = (table.transients, table.periods, table.detected, table.orbits, received)
    for transient, minimal, length, orbit_period, count in zip(
        *(column[cycles].tolist() for column in columns)
    ):
        hi, rec_hi = lo + minimal, rec_lo + count
        results.append(
            PeriodicityResult(
                transient_iters=transient,
                poincare_period=minimal,
                orbit_period=orbit_period,
                detected_period=length,
                return_times=tuple(return_times[lo:hi]),
                cycle_states=tuple(states[lo:hi]),
                receptions=tuple(receptions[rec_lo:rec_hi]),
            )
        )
        lo, rec_lo = hi, rec_hi
    return results


def _ranges(starts, sizes):
    """The ranges starts[i] .. starts[i] + sizes[i] - 1, one after another."""
    import numpy as np

    return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def _check_budget(max_iter: int, tol: float, names: tuple[str, str] = ("max_iter", "tol")) -> None:
    """Raise ValueError unless max_iter >= 1 and 0 < tol < inf, calling the
    two values by names."""
    if max_iter < 1:
        raise ValueError(f"{names[0]} must be >= 1, got {max_iter}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"{names[1]} must be positive and finite, got {tol}")


def detect_periodicity(
    params: ModelParams,
    state: NetworkState,
    max_iter: int = 10_000,
    tol: float = DEFAULT_MATCH_TOL,
) -> PeriodicityResult | NotPeriodic:
    """Iterate the section map until a previously seen state recurs:
    detect_periodicity_many for a batch of one, by its rule.  After
    max_iter iterations a NotPeriodic report is returned (a result, not an
    error).
    """
    return detect_periodicity_many(params, [state], max_iter, tol)[0]


def detect_periodicity_many(
    params: ModelParams,
    states,
    max_iter: int = 10_000,
    tol: float = DEFAULT_MATCH_TOL,
) -> list[PeriodicityResult | NotPeriodic]:
    """Iterate the section map from many starts at once until, for each,
    a previously seen state recurs; one result per start.

    Each return runs as if on a fresh engine from the previous return's
    state, as in poincare_map; the starts' returns run in lockstep on
    float64 arrays (lockstep.LockstepEngine).  Each start's visited
    states, return times and deliveries stay in a lockstep._History, and
    the newest state is compared against earlier ones by one rule: phase 0
    within tol (the prefilter), equal FTD row lengths, state_distance <=
    tol, the earliest match first, so the reported transient is minimal.
    A start that finishes leaves the history; a found cycle's rows are
    copied out, and every cycle of the batch is assembled at the end.
    A start with no revisit after max_iter iterations gets a NotPeriodic
    report.  If any start raises, the error of the first such start (in
    the given order) is raised.
    """
    import numpy as np

    from .lockstep import _decode

    cycle, ends, table = _detect(params, list(states), max_iter, tol)
    results: list = [None] * len(cycle)
    periodic = np.flatnonzero(cycle >= 0)
    for s, result in zip(periodic.tolist(), _cycle_results(table, cycle[periodic])):
        results[s] = result
    for s, state in zip(np.flatnonzero(cycle < 0).tolist(), _decode(*ends)):
        results[s] = NotPeriodic(iterations=max_iter, last_state=state)
    return results


def _section_rows(params: ModelParams, states: list):
    """The starts as rows in lockstep's layout, up to the first that
    require_section_state rejects, and {index: its error} ({} if none).
    Rows of real numbers are checked at once, after the length check that
    _encode needs; other starts are checked one by one, in order."""
    import numpy as np

    from .lockstep import _bad_rows, _encode

    n = params.n
    fits = [len(s.phases) == n == len(s.ftds) for s in states]
    head = states[: fits.index(False) if False in fits else None]
    values = ([s.phases for s in head], [x for s in head for row in s.ftds for x in row])
    try:
        real = {np.asarray(v).dtype.kind for v in values} <= set("biuf")
    except ValueError:
        real = False
    bad, rows = 0, None
    if real:
        rows = _encode(n, head)
        wrong = _bad_rows(params, *rows)
        bad = int(np.argmax(wrong)) if wrong.any() else len(head)
    errors: dict[int, Exception] = {}
    for idx in range(bad, len(states)):
        try:
            require_section_state(params, states[idx])
        except ValueError as exc:
            errors[idx] = exc
            break
    if errors or not real:
        rows = _encode(n, states[: min(errors, default=len(states))])
    return rows, errors


def _detect(params: ModelParams, states: list, max_iter: int, tol: float):
    """detect_periodicity_many's loop; returns (cycle, ends, table).
    cycle[s] is start s's cycle in the _CycleTable, or -1 if it found none
    within max_iter returns; ends holds the last rows (lockstep's layout)
    of those, in start order.
    """
    _check_budget(max_iter, tol)

    import numpy as np

    from .lockstep import LockstepEngine, _History

    rows, errors = _section_rows(params, states)
    n = params.n
    count = len(rows[0])
    eng = LockstepEngine(params, *rows)

    # hist holds every live start's states, return times and deliveries,
    # row p for the start at live[p]; a start leaves it when it finishes.
    # A found cycle's rows are copied out then (after an empty chunk that
    # gives the columns their shapes), and assembled at the end.
    live = np.arange(count)
    hist = _History(n, eng.phases, eng.ftds, eng.senders)
    none = np.zeros(0, dtype=int)
    cycles = [(none, none, *hist.gather(range(6), none, none))]
    cycle = np.full(count, -1)
    ends = hist.gather((0, 1, 2), none, none)

    for it in range(1, max_iter + 1):
        if not live.size:
            break
        out = eng.run_until_section()
        matched = hist.match(out.phases, out.ftds, out.senders, tol)
        hist.append(out)

        failed = np.zeros(live.size, dtype=bool)
        failed[list(out.errors)] = True
        matched[failed] = -1
        for p, exc in out.errors.items():
            errors[int(live[p])] = exc
        done = np.nonzero(matched >= 0)[0]
        if done.size:
            # The found cycles' rows: states j..it-1, each with the return
            # that leaves it.
            j = matched[done]
            lengths = it - j
            at, p = _ranges(j, lengths), np.repeat(done, lengths)
            cycles.append(
                (j, lengths, *hist.gather((0, 1, 2), at, p), *hist.gather((3, 4, 5), at + 1, p))
            )
            cycle[live[done]] = cycle.max() + 1 + np.arange(done.size)  # in the order found
        leave = failed | (matched >= 0)
        if it == max_iter:
            last = np.nonzero(~leave)[0]
            ends = hist.gather((0, 1, 2), np.full(last.size, it), last)
            leave[:] = True
        keep = ~leave
        if errors:
            keep &= live < min(errors)
        if not keep.all():
            live = live[keep]
            hist.keep(keep)
            eng.keep(keep)

    if errors:
        raise errors[min(errors)]
    return cycle, ends, _cycle_table(n, tol, cycles)


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
        return dict(self._per_recipient)

    @cached_property
    def _per_recipient(self) -> dict[int, tuple[int, ...]]:
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

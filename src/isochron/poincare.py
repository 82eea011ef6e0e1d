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
from itertools import chain, islice
from operator import ne, sub

import numpy as np

from ._serial import Record
from .engine import (
    Engine,
    NetworkState,
    init_engine,  # noqa: F401  (bound here for perfbench/tracer.py)
    is_section_state,
    validate_state,
)
from .lockstep import (
    LockstepEngine,
    _bad_rows,
    _decode,
    _encode,
    _History,
    _ranges,
    _row_col,
    _stack,
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
    poincare_period   minimal cycle length: detection stops at the first
                      revisit, so the revisit distance is minimal
    orbit_period      total time of one minimal cycle
    detected_period   the revisit distance, always equal to poincare_period
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
    "_CycleTable", "transients periods orbits phases ftds senders returns receptions"
)


def _cycle_table(n: int, chunks: list[tuple]) -> _CycleTable:
    """The detected cycles of chunks, on arrays for all at once.

    Each chunk holds some cycles as (transients, periods, phases, ftds,
    senders, returns, delivered, when, mult).  Cycle k's orbit revisits,
    after periods[k] more returns, the state it reached after
    transients[k] returns; its periods[k] states are consecutive rows of
    the other arrays, in cycle order and chunk after chunk.  A row holds a
    state in lockstep's row layout (phases, FTD entries, their senders),
    then the time (returns) and the deliveries (LockstepReturns'
    delivered, when and mult, flat) of the return that leaves it.

    Detection stops at the first revisit, so every cycle is minimal: were
    each state of cycle k within the match tolerance of the one d returns
    on, for a proper divisor d of periods[k], the state after
    transients[k] + d returns would have matched the one after
    transients[k], and detection would have stopped there.  The orbit
    period sums the cycle's return times from the left.  Its receptions
    are timed from the cycle start, a reception at the period boundary
    counting at offset 0 of the next pass, and ordered by offset and then
    recipient, ties in cycle order.

    The table holds per cycle its transient, its period and its orbit
    period, then the rows of all cycles as given: phases, ftds and
    senders, and returns, the time of the return that leaves each.
    receptions are the columns (cycle, who, mult, offset), cycle by
    cycle, each cycle's in order.
    """
    cols = list(zip(*chunks))
    transients, periods, phases, returns, delivered, when, mult = (
        np.concatenate(cols[i]) for i in (0, 1, 2, 5, 6, 7, 8)
    )
    ftds, senders = _stack(cols[3], 0.0), _stack(cols[4], n)

    count = len(periods)
    cycle = np.repeat(np.arange(count), periods)
    pos = np.arange(len(cycle)) - (np.cumsum(periods) - periods)[cycle]

    # clock[k, m]: the time of cycle k's first m returns, summed from the
    # left as sum() does.
    clock = np.zeros((count, int(periods.max(initial=0)) + 1))
    clock[cycle, pos + 1] = returns
    np.cumsum(clock, axis=1, out=clock)
    orbit = clock[np.arange(count), periods]

    # The receptions, in (row, delivery, who) order, are the table's
    # longest columns: each array is dropped once it has been read.
    at, who = _row_col(mult > 0)
    who, got = who.astype(np.min_scalar_type(n)), mult[at, who]
    row = np.repeat(np.arange(len(delivered)), delivered)[at]
    offset = when[at]
    del at, when, mult
    k = cycle[row]
    offset = clock[k, pos[row]] + offset
    del row
    offset[offset >= (orbit - DEFAULT_MATCH_TOL)[k]] = 0.0
    order = np.lexsort((who, offset, k))
    k, who = k[order], who[order]
    got, offset = got[order], offset[order]
    return _CycleTable(
        transients=transients,
        periods=periods,
        orbits=orbit,
        phases=phases,
        ftds=ftds,
        senders=senders,
        returns=returns,
        receptions=(k, who, got, offset),
    )


def _cycle_rows(table: _CycleTable, cycles) -> np.ndarray:
    """The rows of the table's given cycles, cycle after cycle."""
    return _ranges((np.cumsum(table.periods) - table.periods)[cycles], table.periods[cycles])


def _cycle_results(table: _CycleTable, cycles) -> list[PeriodicityResult]:
    """The PeriodicityResults of the table's given cycles, in that order:
    the object stage of cycle assembly.  Each cycle reads its rows
    (_cycle_rows) and the range of receptions that carry its number."""
    cycles = np.asarray(cycles, dtype=int)
    rec_cycle, who, mult, offset = table.receptions
    first = np.searchsorted(rec_cycle, cycles)  # receptions are in cycle order
    received = np.searchsorted(rec_cycle, cycles, side="right") - first
    rows, recs = _cycle_rows(table, cycles), _ranges(first, received)
    states = _decode(table.phases[rows], table.ftds[rows], table.senders[rows])
    return_times = table.returns[rows].tolist()
    receptions = list(zip(who[recs].tolist(), mult[recs].tolist(), offset[recs].tolist()))
    results = []
    lo = rec_lo = 0
    columns = (table.transients[cycles], table.periods[cycles], table.orbits[cycles], received)
    for transient, period, orbit_period, count in zip(*(column.tolist() for column in columns)):
        hi, rec_hi = lo + period, rec_lo + count
        results.append(
            PeriodicityResult(
                transient_iters=transient,
                poincare_period=period,
                orbit_period=orbit_period,
                detected_period=period,
                return_times=tuple(return_times[lo:hi]),
                cycle_states=tuple(states[lo:hi]),
                receptions=tuple(receptions[rec_lo:rec_hi]),
            )
        )
        lo, rec_lo = hi, rec_hi
    return results


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
    float64 arrays (lockstep.LockstepEngine), at most _LIVE_ROWS of them
    at a time, the next start taking the row of one that finished.  Each
    running start's visited states, return times and deliveries stay in a
    lockstep._History, and the newest state is compared against earlier
    ones by one rule: equal FTD row lengths and state_distance <= tol, the
    earliest match first, so the reported transient and period are
    minimal.  The prefilter on every phase (_History.match) makes the same
    subtraction as the distance, so it drops no match.  A start that
    finishes leaves the history, and a found cycle's rows are copied out.
    A start with no revisit after max_iter iterations gets a NotPeriodic
    report.  If any start raises, the error of the first such start (in
    the given order) is raised.
    """
    cycle, ends, chunks = _detect(params, _state_source(params, states), max_iter, tol)
    results: list = [None] * len(cycle)
    periodic = np.flatnonzero(cycle >= 0)
    table = _cycle_table(params.n, chunks)
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


def _state_source(params: ModelParams, states):
    """The row source (see _detect) of an iterable of NetworkState starts:
    each batch is taken in order and checked by _section_rows."""
    states = iter(states)

    def take(count: int) -> tuple:
        batch = list(islice(states, count))
        return (*_section_rows(params, batch), len(batch))

    return take


#: Starts that detection runs at once, as the rows of one LockstepEngine.
#: A return or a step costs about the same numpy calls at any width, so
#: more rows take fewer of them (25 returns on the 0.01 grid's triangle
#: here, 109 at 300 rows), but the history and the engine's per-return
#: arrays grow with the rows.  Measured on a 2-core Xeon (Python 3.11),
#: two runs per width of the benchmark's phase-portrait workload
#: (perfbench/run.py --seconds 8) and of the CLI scan --eps 0.005 --step
#: 0.02, whose 1,275 starts are all live from 1,275 rows on:
#:
#:     rows   wall_ref_s   peak_rss_mb    weak-coupling peak (MB)
#:      300   0.54-0.63    43.35-43.36    37.5
#:     1000   0.49-0.51    43.67-43.68    41.2-41.3
#:     2000   0.44-0.46    43.67-43.73    41.8
#:     2500   0.42-0.44    43.93-43.97    41.8
#:     3000   0.45-0.47    44.19-44.28    41.7-41.8
#:     4000   0.41-0.45    44.36-44.40    41.7
#:
#: (padded history at 300 rows: 0.52-0.60 s, 43.62-43.65 MB and 38.1-38.3
#: MB).  Wider windows are no faster within the noise, and from 3,000 rows
#: the peak comes within 0.3 MB of 2% over the padded history's, less than
#: identical runs' peaks differ with the allocator's layout.
_LIVE_ROWS = 2500


def _detect(params: ModelParams, source, max_iter: int, tol: float) -> tuple:
    """detect_periodicity_many's detection over the starts of a row
    source: (cycle, ends, chunks), once every start has finished.  chunks
    are the found cycles' rows, for _cycle_table to build their table
    from, in the order they were found; cycle[s] is start s's cycle in
    that table, or -1 if it found none within max_iter returns; ends holds
    the last rows (lockstep's layout) of those, in start order.

    source(count) takes the next count starts, or as many as are left, and
    returns (rows, errors, taken): the rows, in lockstep's layout, of the
    taken starts up to the first that require_section_state rejects;
    {its index among them: that error}, or {}; and how many it took.
    NetworkStates come through _state_source; the phase scan
    (sweep._grid_source) and the region checks (regions._family_source)
    write their starts as rows, with no NetworkState.

    At most _LIVE_ROWS starts run at once, as the rows of one
    LockstepEngine.  After every return, as many starts as there are free
    rows, the rows of those that finished or failed, are taken from the
    source in order and admitted.  Once a start has failed no later start
    is admitted, and the error of the first failing start is raised when
    the starts before it have finished.
    """
    _check_budget(max_iter, tol)
    n = params.n
    width = _LIVE_ROWS
    eng = LockstepEngine(params, *_encode(n, []))
    hist = _History(n, width, max_iter)
    # Per row, in start order: its start's index and its returns so far.
    start = age = np.zeros(0, dtype=int)
    errors: dict[int, Exception] = {}
    # The found cycles' rows as _cycle_table chunks, and the starts that
    # found them; the last rows of the starts that found none.
    none = np.zeros(0, dtype=int)
    empty = (np.zeros((0, n)), np.zeros((0, 0)), np.zeros((0, 0), np.min_scalar_type(n)))
    no_returns = (np.zeros(0), none, np.zeros(0), np.zeros((0, n), np.uint8))
    chunks, finders, ends = [(none, none, *empty, *no_returns)], [none], [empty]
    pulled = 0  # the starts taken from states

    while True:
        # Admit the next starts into the free rows, none after a failed one.
        taken = 0
        if not errors and len(start) < width:
            rows, bad, taken = source(width - len(start))
        if taken:
            errors.update((pulled + i, exc) for i, exc in bad.items())
            take = len(rows[0])
            eng.add(*rows)
            slots, zero = np.arange(len(start), len(start) + take), np.zeros(take, dtype=int)
            # Age 0: no return has reached a start, so no time and no deliveries.
            hist.add(slots, zero, [*rows, zero, zero, *no_returns[2:]])
            start = np.concatenate([start, pulled + np.arange(take)])
            age = np.concatenate([age, zero])
            pulled += taken
        if not len(start):
            break

        out = eng.run_until_section()
        age = age + 1
        matched = hist.match(out.phases, out.ftds, out.senders, tol)
        returned = [out.phases, out.ftds, out.senders, out.elapsed, out.delivered, out.when]
        hist.add(np.arange(len(start)), age, [*returned, out.mult])
        failed = np.zeros(len(start), dtype=bool)
        failed[list(out.errors)] = True
        errors.update((int(start[p]), exc) for p, exc in out.errors.items())
        found = (matched >= 0) & ~failed
        last = ~found & ~failed & (age == max_iter)

        if found.any():
            # The found cycles' rows: each start's states matched..age-1,
            # each with the return that leaves it.
            lo = np.where(found, matched, age)
            chunks.append(
                (
                    matched[found],
                    (age - matched)[found],
                    *hist.entries(lo, age),
                    *hist.entries(lo + 1, age + 1, returns=True),
                )
            )
            finders.append(start[found])
        ends.append((out.phases[last], out.ftds[last], out.senders[last]))

        leave = found | last | failed
        if errors:
            leave |= start > min(errors)
        if leave.any():
            keep = ~leave
            start, age = start[keep], age[keep]
            eng.keep(keep)
            hist.keep(keep)

    if errors:
        raise errors[min(errors)]
    finders = np.concatenate(finders)
    cycle = np.full(pulled, -1)
    cycle[finders] = np.arange(len(finders))
    # A start that finds no cycle ends max_iter returns after it was
    # admitted, and starts are admitted in order, so ends are in start order.
    phases, ftds, senders = zip(*ends)
    ends = (np.concatenate(phases), _stack(ftds, 0.0), _stack(senders, n))
    return cycle, ends, chunks


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


def pulse_equivalent(a: PulseSignature, b: PulseSignature, tol: float = DEFAULT_MATCH_TOL) -> bool:
    """Same period (within tol), same reception count, and per recipient the
    same time-ordered multiplicity sequence."""
    if abs(a.period - b.period) > tol:
        return False
    if len(a.receptions) != len(b.receptions):
        return False
    return a.per_recipient() == b.per_recipient()

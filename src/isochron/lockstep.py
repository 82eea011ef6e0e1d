"""Section returns of many networks at once, on float64 arrays.

Independent networks with the same parameters can advance in lockstep:
every step moves each one to its own next timestamp with the scalar
engine's float operations, in its order, so each ends bit for bit where
its own Engine would.  Cycle detection (poincare.detect_periodicity_many,
and detect_periodicity as a batch of one) and the intertwining check
(regions.intertwining_distances, which verify and sweep.stability_probe
call) run their section returns here.

Rows are the first axis of every array, and n (3 on the scan) or a
pulse queue about 12 wide the second, so nothing here reduces or sorts
along that short axis or takes a 2-d np.nonzero: numpy would run one
inner loop per row, at 10-30 times the cost over the columns of a
contiguous transpose.  _by_row reduces each row that way, and _row_col
splits np.flatnonzero's indices into rows and columns.  Both read the
elements in numpy's order and are exact.  Only a max or a min may return
the other zero of a +-0.0 tie, and none reaches an output: the phases'
max is subtracted from clock + 1 >= 1; the queue holds a -0.0 only at
tau = -0.0, where no row steps and every row is replayed on a scalar
engine; and _row_distance takes maxima of absolute values.

A return's deliveries, a varying count per row, stay flat in row order
with a count per row (compressed sparse rows) from the step log to the
cycle table: LockstepReturns hands them over that way, _History logs and
reads them back flat, and poincare._cycle_table builds the receptions
from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .engine import (
    _MAX_SECTION_EVENTS,
    _MAX_SECTION_TIME,
    COINCIDENCE_TOL,
    Engine,
    EngineStallError,
    HorizonExceededError,
    NetworkState,
)
from .model import ModelParams, jump_coeffs


@dataclass(frozen=True)
class LockstepReturns:
    """One section return of every row of a LockstepEngine.  Row r's state
    is phases[r] plus the FTD entries ftds[r, q] of senders[r, q], ordered
    by sender and then ascending, with the empty slots at the end (sender
    n, entry 0.0).  The deliveries are run_until_section's, flat, row
    after row and each row's in order (compressed sparse rows): row r has
    delivered[r] of them, and delivery d is at time when[d] with
    multiplicity mult[d, i] for oscillator i (0: none).  errors maps a row
    to what the scalar engine raised for it; that row's other fields are
    meaningless, and it has no deliveries."""

    phases: np.ndarray
    ftds: np.ndarray
    senders: np.ndarray
    elapsed: np.ndarray
    delivered: np.ndarray
    when: np.ndarray
    mult: np.ndarray
    errors: dict[int, Exception]


class LockstepEngine(Engine):
    """Section returns of many networks with the same parameters at once,
    on float64 arrays.

    Row r starts as Engine(params, state) would from the state that
    _encode wrote as phases[r], ftds[r] and senders[r].  Each
    run_until_section() runs every row to the next fire of the last
    oscillator, returns a LockstepReturns and restarts each row at clock 0
    from the state it exported, as poincare_map starts a new engine for
    each return; there is no trace=True.  All rows advance one timestamp
    per step with Engine._advance's float operations, in the same order,
    so every row ends bit for bit where the scalar run ends; a step is at
    most one delivery round of a row, and the step log gives each row's
    deliveries.  A row whose return leaves that common path -- a
    same-timestamp cascade, a timestamp with no event, the
    _MAX_SECTION_TIME horizon or the _MAX_SECTION_EVENTS budget -- is
    replayed from its start on a scalar Engine, which handles it or raises
    exactly as for a single network, and its deliveries are the scalar
    engine's.  At tau <= COINCIDENCE_TOL every fire cascades, so no row
    steps and every row is replayed on every return.

    It is an Engine so that run_until_section stays the one entry point of
    a section return, batched or not (perfbench/tracer.py counts engine
    work there), and events_processed counts the events the rows' scalar
    engines would process.  The single-network methods (step, simulate,
    state, ...) do not apply to it.
    """

    def __init__(
        self, params: ModelParams, phases: np.ndarray, ftds: np.ndarray, senders: np.ndarray
    ) -> None:
        # No Engine.__init__: there is no single clock, phase list or heap.
        self.params = params
        self.events_processed = 0
        # Each row's start, in LockstepReturns' layout.
        self.phases, self.ftds, self.senders = phases, ftds, senders
        # jump_coeffs by multiplicity; grows to the largest one a step meets.
        self._coeffs = _coeff_table(params, 1)

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the rows the boolean mask selects, in order."""
        self.phases, self.ftds, self.senders = self.phases[rows], self.ftds[rows], self.senders[rows]

    def add(self, phases: np.ndarray, ftds: np.ndarray, senders: np.ndarray) -> None:
        """Append rows that start from the states _encode wrote as phases,
        ftds and senders."""
        self.phases = np.concatenate([self.phases, phases])
        self.ftds = _stack([self.ftds, ftds], 0.0)
        self.senders = _stack([self.senders, senders], self.params.n)

    def _section_return(self, trace: bool) -> LockstepReturns:
        params = self.params
        n, tau = params.n, params.tau
        if trace:
            raise ValueError("a LockstepEngine runs returns without a trace")
        phases, ftds, senders = self.phases, self.ftds, self.senders
        rows = len(phases)
        at_threshold = 1.0 - COINCIDENCE_TOL
        oscillators = np.arange(n)

        # Each row's pulses form a queue in delivery order: a timestamp
        # delivers a prefix of the pending pulses (their slots turn to inf)
        # and its fires fill the n slots from the tail (inf where an
        # oscillator did not fire), because a pulse sent now lands no
        # earlier than a pending one.  Where the tail meets the end, each
        # row's pending pulses move to its first slots (_compact_queue).
        row_ix = np.arange(rows)[:, None]
        times = np.where(senders < n, tau - ftds, np.inf)
        order = np.argsort(times, axis=1, kind="stable")
        # Senders in the narrowest type, as every row has a slot for as
        # many pulses as the row with the most.
        small = np.min_scalar_type(n)
        q_time, q_send = times[row_ix, order], senders[row_ix, order].astype(small)
        tail = q_time.shape[1]
        a_tab, c_tab = self._coeffs
        theta = phases.copy()
        clock = np.zeros(rows)
        live = np.arange(rows)
        # Where each row's return ended: phases and clock.
        end_theta = np.zeros((rows, n))
        end_clock = np.zeros(rows)
        replay: list[int] = []
        # Per step: the stepped rows, their timestamp, their multiplicities
        # and which of their oscillators fired.
        log = [(live[:0], clock[:0], np.zeros((0, n), dtype=np.uint8), np.zeros((0, n), bool))]
        # Per step that ended rows: their pending pulses, each row's latest
        # first, as their rows, sigma and senders.
        pending = [(live[:0], clock[:0], np.zeros(0, small))]

        # At tau <= COINCIDENCE_TOL every fire cascades, so no row steps.
        for _ in range(_MAX_SECTION_EVENTS if tau > COINCIDENCE_TOL else 0):
            if not live.size:
                break
            t_fire = (clock + 1.0) - _by_row(np.max, theta)
            t_star = np.minimum(t_fire, _by_row(np.min, q_time, initial=np.inf))
            dt = t_star - clock
            np.add(theta, dt[:, None], out=theta, where=(dt > 0.0)[:, None])
            clock = t_star
            due_at = t_star + COINCIDENCE_TOL

            # A due pulse reaches every oscillator but its sender.
            row, slot = _row_col(q_time <= due_at[:, None])
            sent = np.bincount(row * n + q_send[row, slot], minlength=live.size * n)
            sent = sent.reshape(live.size, n)
            mult = _by_row(np.sum, sent)[:, None] - sent
            top = int(mult.max(initial=0))
            if top >= len(a_tab):
                a_tab, c_tab = self._coeffs = _coeff_table(params, top)
            q_time[row, slot] = np.inf
            got = mult > 0
            theta = np.where(got, np.minimum(1.0, a_tab[mult] * theta + c_tab[mult]), theta)
            fire = theta >= at_threshold
            theta[fire] = 0.0
            fired = _by_row(np.any, fire)
            # No event at all (n >= 2, so a due pulse always has a receiver).
            bad = (t_star > _MAX_SECTION_TIME) | ~(fired | _by_row(np.any, got))
            log.append((live, t_star, mult.astype(np.min_scalar_type(top)), fire))

            if fired.any():
                land = t_star + tau
                bad |= fired & (land <= due_at)
                if tail + n > q_time.shape[1]:
                    q_time, q_send, tail = _compact_queue(q_time, q_send, n)
                q_time[:, tail : tail + n] = np.where(fire, land[:, None], np.inf)
                q_send[:, tail : tail + n] = np.where(fire, oscillators, n)
                tail += n

            done = fire[:, -1] & ~bad
            leave = done | bad
            if leave.any():
                # Rows taken by index: a boolean mask is slow on 2-d arrays.
                at, keep = np.flatnonzero(done), np.flatnonzero(~leave)
                d = live[at]
                end_theta[d], end_clock[d] = theta.take(at, axis=0), clock[at]
                # Engine.state(): sigma = clock + tau - t, of the latest
                # delivery (the smallest sigma) first.
                time = q_time.take(at, axis=0)[:, ::-1]
                row, slot = _row_col(time < np.inf)
                sigma = (clock[at][row] + tau) - time[row, slot]
                pending.append((d[row], sigma, q_send.take(at, axis=0)[:, ::-1][row, slot]))
                replay.extend(live[bad].tolist())
                live, theta, clock = live[keep], theta.take(keep, axis=0), clock[keep]
                q_time, q_send = q_time.take(keep, axis=0), q_send.take(keep, axis=0)
        replay.extend(live.tolist())

        # The rows' pending pulses, clamped, sorted stably by row and sender
        # into each row's first slots: each row's latest first.
        row, sigma, send = (np.concatenate(col) for col in zip(*pending))
        by = np.argsort(row * (n + 1) + send, kind="stable")
        row, sigma, send = row[by], sigma[by], send[by]
        count, slot = _places(row, rows)
        out_senders = np.full((rows, int(count.max(initial=0))), n, small)
        out_ftds = np.zeros(out_senders.shape)
        out_senders[row, slot] = send
        out_ftds[row, slot] = np.where(sigma < 0.0, 0.0, np.where(sigma > tau, tau, sigma))

        stepped, at, mults, fires = (np.concatenate(col) for col in zip(*log))
        if replay:
            ran = ~np.isin(stepped, replay)
            stepped, at, mults, fires = stepped[ran], at[ran], mults[ran], fires[ran]
        # Engine._advance's count: one event per distinct multiplicity a
        # delivery hands out, and one per fire.  A multiplicity is new where
        # it is nonzero and differs from every one before it in its step.
        column = np.ascontiguousarray(mults.T)
        new = column != 0
        for i in range(1, n):
            new[i] &= (column[:i] != column[i]).all(axis=0)
        del column
        self.events_processed += int(np.count_nonzero(new) + np.count_nonzero(fires))
        # A step that delivers is one delivery round of its row; its first
        # nonzero multiplicity is new.
        rounds = new.any(axis=0)
        stepped, at, mults = stepped[rounds], at[rounds], mults[rounds]

        errors: dict[int, Exception] = {}
        # Replayed deliveries, and the row of each.
        replayed: list[tuple[float, list[int]]] = []
        replayed_rows: list[int] = []
        ended: dict[int, NetworkState] = {}
        replay.sort()
        starts = _decode(phases[replay], ftds[replay], senders[replay])
        for row, start in zip(replay, starts):
            eng = Engine(params, start)
            try:
                ended[row], end_clock[row], got = eng._section_return(False)
            except (EngineStallError, HorizonExceededError) as exc:
                errors[row] = exc  # the caller raises it, in its own order
                continue
            finally:
                self.events_processed += eng.events_processed
            replayed += got
            replayed_rows += repeat(row, len(got))
        if ended:
            # Replayed rows still hold only empty slots in out_ftds and out_senders.
            back = list(ended)
            end_theta[back], ftds_back, senders_back = _encode(n, list(ended.values()))
            w = ftds_back.shape[1]
            out_ftds, out_senders = _widen(out_ftds, w, 0.0), _widen(out_senders, w, n)
            out_ftds[back, :w], out_senders[back, :w] = ftds_back, senders_back
        if replayed:
            times, counts = zip(*replayed)
            stepped = np.concatenate([stepped, replayed_rows])
            at, mults = np.concatenate([at, times]), np.concatenate([mults, counts])

        # Each row's deliveries in order: a stable sort by row keeps the
        # steps' order, and a replayed row has only its scalar deliveries.
        order = np.argsort(stepped, kind="stable")
        width = int(_by_row(np.count_nonzero, out_senders < n).max(initial=0))
        out_ftds, out_senders = out_ftds[:, :width], out_senders[:, :width]

        # The next return starts where this one ended, as Engine starts
        # from the exported state.
        self.phases, self.ftds, self.senders = end_theta, out_ftds, out_senders
        return LockstepReturns(
            phases=end_theta,
            ftds=out_ftds,
            senders=out_senders,
            elapsed=end_clock,
            delivered=np.bincount(stepped, minlength=rows),
            when=at[order],
            mult=mults[order],
            errors=errors,
        )


class _History:
    """The section returns of a LockstepEngine's rows so far, for batched
    detection, as one flat log in which no entry is padded.

    Entry e is the state of row slot[e] after age[e] returns: its phases
    (phases[e]) and the time of the return that reached it (elapsed[e]).
    Its FTD entries with their senders (ftds, in LockstepReturns' order)
    and that return's deliveries (deliveries: their times, and one row of
    n multiplicities each, in order) are _Ragged, stored flat with offsets
    per entry, as LockstepReturns hands the deliveries over.  A row's
    entry at age 0 is its start, with no deliveries.  Each row's entries
    follow in age order, so rows of any age share the log.  The first size
    entries are used, and a row that leaves takes its entries with it.
    Row slots stay below rows, and ages at most max_age.
    """

    def __init__(self, n: int, rows: int, max_age: int) -> None:
        self.n = n
        self.size = 0
        self.slot = np.zeros(0, np.min_scalar_type(rows))
        self.age = np.zeros(0, np.min_scalar_type(max_age))
        self.phases, self.elapsed = np.zeros((0, n)), np.zeros(0)
        self.ftds = _Ragged([np.zeros(0), np.zeros(0, np.min_scalar_type(n))], (0.0, n))
        self.deliveries = _Ragged([np.zeros(0), np.zeros((0, n), np.uint8)])

    def _columns(self) -> tuple:
        """The columns of one item per entry."""
        return self.slot, self.age, self.phases, self.elapsed

    def add(self, slots: np.ndarray, ages: np.ndarray, entry: list[np.ndarray]) -> None:
        """Log entry (phases, ftds, senders, elapsed, delivered, when and
        mult, in LockstepReturns' layout, one row or count per entry) as
        the states of rows slots after ages returns."""
        phases, ftds, senders, elapsed, delivered, when, mult = entry
        at, self.size = self.size, self.size + len(slots)
        for column in self._columns():
            _grow(column, self.size, len(slots))
        self.slot[at : self.size], self.age[at : self.size] = slots, ages
        self.phases[at : self.size], self.elapsed[at : self.size] = phases, elapsed
        held = senders < self.n
        who = senders[held].astype(np.min_scalar_type(self.n))
        self.ftds.add(at, _by_row(np.sum, held), [ftds[held], who])
        mult = mult.astype(np.min_scalar_type(int(mult.max(initial=0))))
        self.deliveries.add(at, delivered, [when, mult])

    def match(self, phases, ftds, senders, tol: float) -> np.ndarray:
        """For each row, the age of its earliest logged state that its
        given state matches by detection's rule, _row_distance <= tol, or
        -1.  Entries are first kept only where every phase is within tol
        of the row's, by the subtraction _row_distance makes, and the count
        of FTD entries is the row's, so no match is dropped; only those
        entries' FTD entries are read.  (At a large delay the phases repeat
        while the pulses in flight pile up, so the count rejects most.)"""
        slot = self.slot[: self.size]
        old = self.phases
        gap = phases[:, 0][slot]
        np.subtract(old[: self.size, 0], gap, out=gap)
        at = np.flatnonzero(np.abs(gap, out=gap) <= tol)
        del gap
        for i in range(1, self.n):
            at = at[np.abs(old[at, i] - phases[slot[at], i]) <= tol]
        # _row_distance is infinite where the FTD counts differ.
        held = _by_row(np.count_nonzero, senders < self.n)
        at = at[self.ftds.at[at + 1] - self.ftds.at[at] == held[slot[at]]]
        row = slot[at]
        was = [old[at], *self.ftds.padded(at)]
        hit = _row_distance(self.n, was, [phases[row], ftds[row], senders[row]]) <= tol
        row, first = np.unique(row[hit], return_index=True)
        matched = np.full(len(phases), -1)
        matched[row] = self.age[at[hit][first]]
        return matched

    def entries(self, lo: np.ndarray, hi: np.ndarray, returns: bool = False) -> list[np.ndarray]:
        """Each row r's entries from age lo[r] to hi[r] - 1, row after row,
        in age order, in LockstepReturns' layout: their phases, ftds and
        senders, padded to the widest of them, or with returns=True the
        elapsed, delivered, when and mult of the returns that reached them."""
        slot, age = self.slot[: self.size], self.age[: self.size]
        at = np.flatnonzero((age >= lo[slot]) & (age < hi[slot]))
        at = at[np.argsort(slot[at], kind="stable")]
        if returns:
            return [self.elapsed[at], *self.deliveries.flat(at)]
        return [self.phases[at], *self.ftds.padded(at)]

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the entries of the rows the boolean mask selects, as
        the rows of the kept ones in order.  Entries move down in place, and
        the log shrinks once it has room for over twice the kept entries
        and two more per row."""
        kept = rows[self.slot[: self.size]]
        self.ftds.keep(kept, len(rows))
        self.deliveries.keep(kept, len(rows))
        self.size = int(np.count_nonzero(kept))
        for column in self._columns():
            _compact(column, kept, self.size, len(rows))
        renumbered = (np.cumsum(rows) - 1).astype(self.slot.dtype)
        np.take(renumbered, self.slot[: self.size], out=self.slot[: self.size])


class _Ragged:
    """Items of a varying count per entry: each column holds the items of
    all entries flat, one after another, and entry e's are items at[e] to
    at[e + 1] - 1 (compressed sparse rows, Saad 2003, section 3.4).  They
    are read out flat, or padded by fills."""

    def __init__(self, columns: list[np.ndarray], fills: tuple = ()) -> None:
        self.columns, self.fills = columns, fills
        # Narrow offsets, widened if the items ever outgrow them.
        self.at = np.zeros(1, dtype=np.int32)

    def add(self, first: int, counts: np.ndarray, items: list[np.ndarray]) -> None:
        """Log entries first, first + 1, ... with counts[k] of the items
        each, in order; the entries before first are kept."""
        end = first + len(counts)
        used = int(self.at[first])
        top = used + int(counts.sum())
        # The smallest signed type that holds top.
        self.at = _widened(self.at, np.min_scalar_type(-top))
        _grow(self.at, end + 1, len(counts))
        np.cumsum(counts, out=self.at[first + 1 : end + 1])
        self.at[first + 1 : end + 1] += used
        for k, values in enumerate(items):
            self.columns[k] = column = _widened(self.columns[k], values.dtype)
            _grow(column, top, len(values))
            column[used:top] = values

    def flat(self, entries: np.ndarray) -> list[np.ndarray]:
        """The count of items of each of the given entries, then each
        column's items of them, one entry after another."""
        lo = self.at[entries]
        count = self.at[entries + 1] - lo
        items = _ranges(lo, count)
        return [count, *(column.take(items, axis=0) for column in self.columns)]

    def padded(self, entries: np.ndarray) -> list[np.ndarray]:
        """Each column's items of the given entries, one row per entry,
        padded by its fill to the most items of any of them."""
        count, *columns = self.flat(entries)
        held = np.arange(int(count.max(initial=0))) < count[:, None]
        at, out = np.flatnonzero(held), []
        for items, fill in zip(columns, self.fills):
            rows = np.full((held.size, *items.shape[1:]), fill, items.dtype)
            rows[at] = items
            out.append(rows.reshape(*held.shape, *items.shape[1:]))
        return out

    def keep(self, kept: np.ndarray, rows: int) -> None:
        """Keep only the items of the first len(kept) entries that the
        boolean mask kept selects, in order, moved down in place; rows is
        the count of rows before the keep."""
        count = np.diff(self.at[: len(kept) + 1])
        held = np.repeat(kept, count)
        count = count[kept]
        used = int(count.sum())
        for column in self.columns:
            _compact(column, held, used, rows)
        np.cumsum(count, out=self.at[1 : len(count) + 1])
        _fit(self.at, len(count) + 1, rows)


def _widened(column: np.ndarray, dtype) -> np.ndarray:
    """column, or a copy of it in a dtype that also holds dtype's values."""
    kind = np.result_type(column.dtype, dtype)
    return column if kind == column.dtype else column.astype(kind)


def _grow(column: np.ndarray, need: int, more: int) -> None:
    """Give column room for need items along its first axis, if it has
    fewer: need + more + need // 8, so the log grows by an eighth, or by
    one more batch."""
    if need > len(column):
        _resize(column, need + more + need // 8)


#: Bytes that _compact moves at once.
_BLOCK = 1 << 18


def _compact(column: np.ndarray, kept: np.ndarray, used: int, rows: int) -> None:
    """Move the used items among the first len(kept) of column that the
    boolean mask kept selects to its front, in order, _BLOCK bytes at a
    time so that no copy of the whole column is held; then _fit it."""
    done, step = 0, max(1, _BLOCK // (column.itemsize * int(np.prod(column.shape[1:]))))
    for lo in range(0, len(kept), step):
        hi = min(lo + step, len(kept))
        part = column[lo:hi]
        # A boolean mask is slow on a 2-d array, and compress holds more on a 1-d one.
        part = part[kept[lo:hi]] if part.ndim == 1 else np.compress(kept[lo:hi], part, axis=0)
        column[done : done + len(part)] = part
        done += len(part)
    _fit(column, used, rows)


def _fit(column: np.ndarray, used: int, rows: int) -> None:
    """Cut column down to its first used items plus two more per row, once
    it has room for over twice that many."""
    keep = used + 2 * rows
    if len(column) > 2 * keep:
        _resize(column, keep)


def _resize(column: np.ndarray, capacity: int) -> None:
    """Reallocate column in place for capacity items along its first axis,
    keeping the first ones: the allocator may extend or remap the block
    where a new array would hold the old one beside it.  The log's columns
    are never handed out, and no view of one outlives the method that made
    it, so no view is left on the old block."""
    column.resize((capacity, *column.shape[1:]), refcheck=False)


def _encode(n: int, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states of n oscillators as rows: phases, FTD entries ordered by
    sender and then as in the state, and their senders; the empty slots
    at the end of a row are (0.0, n)."""
    who = [[i for i, row in enumerate(s.ftds) for _ in row] for s in states]
    sizes = np.array(list(map(len, who)), dtype=int)
    row = np.repeat(np.arange(len(states)), sizes)
    col = np.arange(len(row)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    phases = np.array([s.phases for s in states], dtype=float).reshape(len(states), n)
    ftds = np.zeros((len(states), int(sizes.max(initial=0))))
    senders = np.full(ftds.shape, n)
    ftds[row, col] = [x for s in states for entries in s.ftds for x in entries]
    senders[row, col] = [i for entries in who for i in entries]
    return phases, ftds, senders


def _decode(phases: np.ndarray, ftds: np.ndarray, senders: np.ndarray) -> list[NetworkState]:
    """The NetworkStates of rows that _encode wrote."""
    if not len(phases):
        return []
    n = phases.shape[1]
    counts = _by_row(np.sum, senders[:, :, None] == np.arange(n))
    # Rows with the same count of entries per sender share the column range
    # of each sender's entries, so each such group is decoded column-wise.
    order = np.lexsort(counts.T[::-1])
    counts = counts[order]
    edges = (np.flatnonzero(_by_row(np.any, counts[1:] != counts[:-1])) + 1).tolist()
    out: list = [None] * len(phases)
    for lo, hi in zip([0, *edges], [*edges, len(order)]):
        rows = order[lo:hi]
        cuts = np.cumsum([0, *counts[lo].tolist()]).tolist()
        columns = ftds[rows].T.tolist()
        rows_ftds = zip(
            *(
                zip(*columns[a:b]) if b > a else repeat((), len(rows))
                for a, b in zip(cuts, cuts[1:])
            )
        )
        states = map(NetworkState, zip(*phases[rows].T.tolist()), rows_ftds)
        for r, state in zip(rows.tolist(), states):
            out[r] = state
    return out


def _row_distance(n: int, a, b) -> np.ndarray:
    """state_distance of the states that rows a and b hold (each phases,
    ftds, senders, as _encode(n, ...) writes them), row by row: infinite
    where the oscillator counts or the FTD row lengths differ."""
    if a[0].shape[1] != b[0].shape[1]:
        return np.full(len(a[0]), np.inf)
    width = max(a[1].shape[1], b[1].shape[1])
    gap = np.maximum(
        _by_row(np.max, np.abs(a[0] - b[0])),
        _by_row(np.max, np.abs(_widen(a[1], width, 0.0) - _widen(b[1], width, 0.0)), initial=0.0),
    )
    gap[_by_row(np.any, _widen(a[2], width, n) != _widen(b[2], width, n))] = np.inf
    return gap


def _bad_rows(params: ModelParams, phases, ftds, senders) -> np.ndarray:
    """Which rows (as _encode writes them) hold states that
    require_section_state rejects: rows not of params.n oscillators, a
    phase outside [0, 1), an FTD entry outside [0, tau] or below the one
    before it, or oscillator n not just fired (phase 0 and an FTD 0)."""
    n = params.n
    if phases.shape[1] != n:
        return np.ones(len(phases), dtype=bool)
    entry = senders < n
    bad = ~_by_row(np.all, (phases >= 0.0) & (phases < 1.0)) | (phases[:, -1] != 0.0)
    bad |= _by_row(np.any, entry & ~((ftds >= 0.0) & (ftds <= params.tau)))
    descending = (senders[:, 1:] == senders[:, :-1]) & (ftds[:, :-1] > ftds[:, 1:])
    bad |= _by_row(np.any, entry[:, 1:] & descending)
    return bad | ~_by_row(np.any, (senders == n - 1) & (ftds == 0.0))


def _coeff_table(params: ModelParams, size: int) -> tuple[np.ndarray, np.ndarray]:
    """jump_coeffs for m = 0..size, with the identity (1, 0) at m = 0."""
    a, c = np.array([(1.0, 0.0)] + [jump_coeffs(params, m) for m in range(1, size + 1)]).T
    return a, c


def _by_row(reduce, a: np.ndarray, **kwargs) -> np.ndarray:
    """reduce(a, axis=1, **kwargs), made over a contiguous copy of a with
    its first two axes swapped.  numpy runs a reduction along a short axis
    as one inner loop per row: the max of each row of a (2500, 3) array
    takes about 110 us, against 6 us for the copy and the reduction over
    its columns.  Exact for max, min, any, all, count and integer sums; a
    max or min may differ only in the sign of a zero it returns."""
    return reduce(np.ascontiguousarray(a.swapaxes(0, 1)), axis=0, **kwargs)


def _compact_queue(q_time: np.ndarray, q_send: np.ndarray, n: int) -> tuple:
    """The pulse queue (q_time, q_send) with each row's pending pulses (a
    finite time) moved to its first slots, in order, 2 * (most pending + n)
    slots wide; and that most pending."""
    row, col = _row_col(q_time < np.inf)
    count, slot = _places(row, len(q_time))
    most = int(count.max(initial=0))
    time = np.full((len(q_time), 2 * (most + n)), np.inf)
    send = np.full(time.shape, n, q_send.dtype)
    time[row, slot], send[row, slot] = q_time[row, col], q_send[row, col]
    return time, send, most


def _places(row: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """For items of the sorted rows row (each below rows): the count of
    items per row, and each item's place among its row's."""
    count = np.bincount(row, minlength=rows)
    return count, np.arange(len(row)) - (np.cumsum(count) - count)[row]


def _row_col(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.nonzero of a 2-d mask, in its order, split from flat indices: a
    quarter of its time at (2500, 12)."""
    at = np.flatnonzero(mask)
    row = at // mask.shape[1]
    return row, at - row * mask.shape[1]


def _widen(a: np.ndarray, width: int, fill) -> np.ndarray:
    """a with its last axis extended to width by fill."""
    if a.shape[-1] >= width:
        return a
    out = np.full((*a.shape[:-1], width), fill, dtype=a.dtype)
    out[..., : a.shape[-1]] = a
    return out


def _ranges(starts, sizes):
    """The ranges starts[i] .. starts[i] + sizes[i] - 1, one after another."""
    return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def _stack(arrays, fill) -> np.ndarray:
    """The arrays concatenated, each widened by fill to the widest."""
    width = max(a.shape[-1] for a in arrays)
    return np.concatenate([_widen(a, width, fill) for a in arrays])

"""Section returns of many networks at once, on float64 arrays.

Independent networks with the same parameters can advance in lockstep:
every step moves each one to its own next timestamp with the scalar
engine's float operations, in its order, so each ends bit for bit where
its own Engine would.  Cycle detection (poincare.detect_periodicity_many,
and detect_periodicity as a batch of one) and the intertwining check
(regions.intertwining_distances, which verify and sweep.stability_probe
call) run their section returns here.
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
    n, entry 0.0).  Row r's deliveries are run_until_section's, in order:
    delivery d is at time when[r, d] with multiplicity mult[r, i, d] for
    oscillator i (0: none), and the slots after the row's last delivery
    are 0.  errors maps a row to what the scalar engine raised for it;
    that row's other fields are meaningless."""

    phases: np.ndarray
    ftds: np.ndarray
    senders: np.ndarray
    elapsed: np.ndarray
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
    engine's.  At tau <= COINCIDENCE_TOL every fire cascades, so every row
    is replayed on every return.

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
        # and its fires fill the next n slots (inf where an oscillator did
        # not fire), because a pulse sent now lands no earlier than a
        # pending one.
        row_ix = np.arange(rows)[:, None]
        times = np.where(senders < n, tau - ftds, np.inf)
        order = np.argsort(times, axis=1, kind="stable")
        q_time, q_send = times[row_ix, order], senders[row_ix, order]
        tail = q_time.shape[1]
        a_tab, c_tab = self._coeffs
        theta = phases.copy()
        clock = np.zeros(rows)
        live = np.arange(rows)
        # Where each row's return ended: phases, clock and pulse queue.
        end_theta = np.zeros((rows, n))
        end_clock = np.zeros(rows)
        end_time = np.full(q_time.shape, np.inf)
        end_send = np.full(q_time.shape, n)
        replay: list[int] = []
        # Per step: the stepped rows, their timestamp, their multiplicities
        # and which of their oscillators fired.
        log = [(live[:0], clock[:0], np.zeros((0, n), dtype=np.intp), np.zeros((0, n), bool))]

        for _ in range(_MAX_SECTION_EVENTS):
            if not live.size:
                break
            t_fire = (clock + 1.0) - theta.max(axis=1)
            t_star = np.minimum(t_fire, q_time.min(axis=1, initial=np.inf))
            dt = t_star - clock
            np.add(theta, dt[:, None], out=theta, where=(dt > 0.0)[:, None])
            clock = t_star
            due_at = t_star + COINCIDENCE_TOL

            # A due pulse reaches every oscillator but its sender.
            row, slot = np.nonzero(q_time <= due_at[:, None])
            sent = np.bincount(row * n + q_send[row, slot], minlength=live.size * n)
            sent = sent.reshape(live.size, n)
            mult = sent.sum(axis=1)[:, None] - sent
            top = int(mult.max(initial=0))
            if top >= len(a_tab):
                a_tab, c_tab = self._coeffs = _coeff_table(params, top)
            q_time[row, slot] = np.inf
            got = mult > 0
            theta = np.where(got, np.minimum(1.0, a_tab[mult] * theta + c_tab[mult]), theta)
            fire = theta >= at_threshold
            theta[fire] = 0.0
            fired = fire.any(axis=1)
            # No event at all (n >= 2, so a due pulse always has a receiver).
            bad = (t_star > _MAX_SECTION_TIME) | ~(fired | got.any(axis=1))
            log.append((live, t_star, mult, fire))

            if fired.any():
                land = t_star + tau
                bad |= fired & (land <= due_at)
                if tail + n > q_time.shape[1]:
                    # Drop the slots every row has delivered, and leave room
                    # for as many pending ones again.
                    pending = (q_time[:, :tail] < np.inf).any(axis=0)
                    gone = int(np.argmax(pending)) if pending.any() else tail
                    tail -= gone
                    width = 2 * (tail + n)
                    q_time = _widen(q_time[:, gone : gone + width], width, np.inf)
                    q_send = _widen(q_send[:, gone : gone + width], width, n)
                    end_time, end_send = _widen(end_time, width, np.inf), _widen(end_send, width, n)
                q_time[:, tail : tail + n] = np.where(fire, land[:, None], np.inf)
                q_send[:, tail : tail + n] = np.where(fire, oscillators, n)
                tail += n

            done = fire[:, -1] & ~bad
            leave = done | bad
            if leave.any():
                d = live[done]
                end_theta[d], end_clock[d] = theta[done], clock[done]
                width = q_time.shape[1]
                end_time[d, :width], end_send[d, :width] = q_time[done], q_send[done]
                replay.extend(live[bad].tolist())
                keep = ~leave
                live, theta, clock = live[keep], theta[keep], clock[keep]
                q_time, q_send = q_time[keep], q_send[keep]
        replay.extend(live.tolist())

        # Engine.state(): sigma = clock + tau - t, clamped.  Reversed, each
        # row's pending pulses run from the latest delivery (the smallest
        # sigma) back, and a stable sort by sender keeps that order; the
        # empty slots sort last.
        key = np.where(np.isfinite(end_time), end_send, n)[:, ::-1]
        width = int(np.count_nonzero(key < n, axis=1).max(initial=0))
        by = np.argsort(key, axis=1, kind="stable")[:, :width]
        out_senders = key[row_ix, by]
        sigma = (end_clock[:, None] + tau) - end_time[:, ::-1][row_ix, by]
        sigma = np.where(sigma < 0.0, 0.0, np.where(sigma > tau, tau, sigma))
        out_ftds = np.where(out_senders < n, sigma, 0.0)

        stepped, at, mults, fires = (np.concatenate(col) for col in zip(*log))
        if replay:
            ran = ~np.isin(stepped, replay)
            stepped, at, mults, fires = stepped[ran], at[ran], mults[ran], fires[ran]
        # Engine._advance's count: one event per distinct multiplicity a
        # delivery hands out, and one per fire.
        ranked = np.sort(mults, axis=1)
        self.events_processed += int(
            np.count_nonzero(ranked[:, 1:] != ranked[:, :-1])
            + np.count_nonzero(ranked[:, 0])
            + np.count_nonzero(fires)
        )
        # A step that delivers is one delivery round of its row.
        delivered = ranked[:, -1] > 0
        stepped, at, mults = stepped[delivered], at[delivered], mults[delivered]

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
        stepped = stepped[order]
        slot = np.arange(len(stepped)) - np.searchsorted(stepped, stepped)
        slots = int(slot.max(initial=-1)) + 1
        when = np.zeros((rows, slots))
        when[stepped, slot] = at[order]
        mult = np.zeros((rows, n, slots), dtype=mults.dtype)
        mult[stepped, :, slot] = mults[order]
        width = int(np.count_nonzero(out_senders < n, axis=1).max(initial=0))
        out_ftds, out_senders = out_ftds[:, :width], out_senders[:, :width]

        # The next return starts where this one ended, as Engine starts
        # from the exported state.
        self.phases, self.ftds, self.senders = end_theta, out_ftds, out_senders
        return LockstepReturns(
            phases=end_theta,
            ftds=out_ftds,
            senders=out_senders,
            elapsed=end_clock,
            when=when,
            mult=mult,
            errors=errors,
        )


class _History:
    """The section returns of a LockstepEngine's rows so far, for batched
    detection, as one flat log.

    Entry e is the state of row slot[e] after age[e] returns: column 0 its
    phases, 1 FTD entries and 2 their senders (LockstepReturns' layout),
    then 3 the time and 4-5 the deliveries (LockstepReturns' when and
    mult) of the return that reached it.  A row's entry at age 0 is its
    start, with no deliveries.  Each row's entries follow in age order, so
    rows of any age share the log and none pads another; entries are
    padded to the widest one logged.  The first size entries are used, and
    a row that leaves takes its entries with it.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.fills = (0.0, 0.0, n, 0.0, 0.0, 0)
        self.size = 0
        self.slot = self.age = np.zeros(0, dtype=np.int32)
        small = np.min_scalar_type(n)
        self.columns = [
            np.zeros((0, n)),
            np.zeros((0, 0)),
            np.zeros((0, 0), small),
            np.zeros((0, 1)),
            np.zeros((0, 0)),
            np.zeros((0, n, 0), np.uint8),
        ]

    def add(self, slots: np.ndarray, ages: np.ndarray, entry: list[np.ndarray]) -> None:
        """Log entry (the six columns, one row per entry) as the states of
        rows slots after ages returns."""
        entry = [*entry[:2], entry[2].astype(np.min_scalar_type(self.n)), *entry[3:]]
        entry[5] = entry[5].astype(np.min_scalar_type(int(entry[5].max(initial=0))))
        at = self.size
        if at + len(slots) > len(self.slot):
            self._resize(at + 2 * len(slots) + len(self.slot) // 4)
        self.size += len(slots)
        self.slot[at : self.size], self.age[at : self.size] = slots, ages
        for k, (e, fill) in enumerate(zip(entry, self.fills)):
            column = self.columns[k]
            width = e.shape[-1]
            if width > column.shape[-1] or not np.can_cast(e.dtype, column.dtype):
                grown = np.full(
                    (*column.shape[:-1], max(width, column.shape[-1])),
                    fill,
                    np.result_type(e, column),
                )
                grown[:at, ..., : column.shape[-1]] = column[:at]
                self.columns[k] = column = grown
            column[at : self.size, ..., :width] = e
            column[at : self.size, ..., width:] = fill

    def _resize(self, capacity: int) -> None:
        """Reallocate the log for capacity entries, one column at a time, so
        that it is never held twice."""

        def moved(column: np.ndarray) -> np.ndarray:
            out = np.empty((capacity, *column.shape[1:]), column.dtype)
            out[: self.size] = column[: self.size]
            return out

        self.slot, self.age = moved(self.slot), moved(self.age)
        for k in range(len(self.columns)):
            self.columns[k] = moved(self.columns[k])

    def match(self, phases, ftds, senders, tol: float) -> np.ndarray:
        """For each row, the age of its earliest logged state that its
        given state matches by detection's rule, _row_distance <= tol, or
        -1.  The prefilter keeps the entries whose phase 0 is within tol of
        the row's by the subtraction _row_distance makes, so it drops no
        match."""
        slot = self.slot[: self.size]
        old = self.columns[0][: self.size, 0]
        at = np.flatnonzero(np.abs(old - phases[slot, 0]) <= tol)
        row = slot[at]
        new = [phases[row], ftds[row], senders[row]]
        hit = _row_distance(self.n, [col[at] for col in self.columns[:3]], new) <= tol
        row, first = np.unique(row[hit], return_index=True)
        matched = np.full(len(phases), -1)
        matched[row] = self.age[at[hit][first]]
        return matched

    def entries(self, cols, lo: np.ndarray, hi: np.ndarray) -> list[np.ndarray]:
        """Columns cols of each row r's entries from age lo[r] to hi[r] - 1,
        row after row, in age order."""
        slot, age = self.slot[: self.size], self.age[: self.size]
        at = np.flatnonzero((age >= lo[slot]) & (age < hi[slot]))
        at = at[np.argsort(slot[at], kind="stable")]
        return [self.columns[k][at] for k in cols]

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the entries of the rows the boolean mask selects, as
        the rows of the kept ones in order.  Entries move down in place, and
        the log shrinks once it has room for over twice the kept entries
        and two more per row."""
        at = np.flatnonzero(rows[self.slot[: self.size]])
        self.size = len(at)
        for column in [self.slot, self.age, *self.columns]:
            np.take(column, at, axis=0, out=column[: self.size])
        self.slot[: self.size] = (np.cumsum(rows) - 1)[self.slot[: self.size]]
        if len(self.slot) > 2 * (self.size + 2 * len(rows)):
            self._resize(self.size + 2 * len(rows))


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
    counts = (senders[:, :, None] == np.arange(n)).sum(axis=1)
    # Rows with the same count of entries per sender share the column range
    # of each sender's entries, so each such group is decoded column-wise.
    order = np.lexsort(counts.T[::-1])
    counts = counts[order]
    edges = (np.flatnonzero((counts[1:] != counts[:-1]).any(axis=1)) + 1).tolist()
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
        np.abs(a[0] - b[0]).max(axis=1),
        np.abs(_widen(a[1], width, 0.0) - _widen(b[1], width, 0.0)).max(axis=1, initial=0.0),
    )
    gap[(_widen(a[2], width, n) != _widen(b[2], width, n)).any(axis=1)] = np.inf
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
    bad = ~((phases >= 0.0) & (phases < 1.0)).all(axis=1) | (phases[:, -1] != 0.0)
    bad |= (entry & ~((ftds >= 0.0) & (ftds <= params.tau))).any(axis=1)
    descending = (senders[:, 1:] == senders[:, :-1]) & (ftds[:, :-1] > ftds[:, 1:])
    bad |= (entry[:, 1:] & descending).any(axis=1)
    return bad | ~((senders == n - 1) & (ftds == 0.0)).any(axis=1)


def _coeff_table(params: ModelParams, size: int) -> tuple[np.ndarray, np.ndarray]:
    """jump_coeffs for m = 0..size, with the identity (1, 0) at m = 0."""
    a, c = np.array([(1.0, 0.0)] + [jump_coeffs(params, m) for m in range(1, size + 1)]).T
    return a, c


def _widen(a: np.ndarray, width: int, fill) -> np.ndarray:
    """a with its last axis extended to width by fill."""
    if a.shape[-1] >= width:
        return a
    out = np.full((*a.shape[:-1], width), fill, dtype=a.dtype)
    out[..., : a.shape[-1]] = a
    return out


def _stack(arrays, fill) -> np.ndarray:
    """The arrays concatenated, each widened by fill to the widest."""
    width = max(a.shape[-1] for a in arrays)
    return np.concatenate([_widen(a, width, fill) for a in arrays])

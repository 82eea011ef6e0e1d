"""Section returns of many networks at once, on float64 arrays.

Independent networks with the same parameters can advance in lockstep:
every step moves each one to its own next timestamp with the scalar
engine's float operations, in its order, so each ends bit for bit where
its own Engine would.  Cycle detection (poincare.detect_periodicity_many,
and detect_periodicity as a batch of one) and the intertwining check
(regions.intertwining_distances, which verify and sweep.stability_probe
call) import this module lazily, so runs that do neither do not load it,
nor numpy with the engine.
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

            due = q_time <= due_at[:, None]
            mult = (due[:, :, None] & (q_send[:, :, None] != oscillators)).sum(axis=1)
            top = int(mult.max(initial=0))
            if top >= len(a_tab):
                a_tab, c_tab = self._coeffs = _coeff_table(params, top)
            q_time[due] = np.inf
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
                    width = 2 * (tail + n)
                    q_time, q_send = _widen(q_time, width, np.inf), _widen(q_send, width, n)
                    end_time, end_send = _widen(end_time, width, np.inf), _widen(end_send, width, n)
                q_time[:, tail : tail + n] = np.where(fire, land[:, None], np.inf)
                q_send[:, tail : tail + n] = np.where(fire, oscillators, n)
                tail += n

            done = fire[:, -1] & ~bad
            leave = done | bad
            if leave.any():
                d = live[done]
                end_theta[d], end_clock[d] = theta[done], clock[done]
                end_time[d], end_send[d] = q_time[done], q_send[done]
                replay.extend(live[bad].tolist())
                keep = ~leave
                live, theta, clock = live[keep], theta[keep], clock[keep]
                q_time, q_send = q_time[keep], q_send[keep]
        replay.extend(live.tolist())

        # Engine.state(): sigma = clock + tau - t, clamped.  Reversed, each
        # row's pending pulses run from the latest delivery (the smallest
        # sigma) back, and a stable sort by sender keeps that order.
        sigma = (end_clock[:, None] + tau) - end_time
        sigma = np.where(sigma < 0.0, 0.0, np.where(sigma > tau, tau, sigma))[:, ::-1]
        key = np.where(np.isfinite(end_time), end_send, n)[:, ::-1]
        by = np.argsort(key, axis=1, kind="stable")
        out_senders = key[row_ix, by]
        out_ftds = np.where(out_senders < n, sigma[row_ix, by], 0.0)

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


#: Returns in the first chunk of a _History; each next chunk holds twice as
#: many, up to 8 times as many.  A chunk is the unit in which the history
#: grows and drops rows, so neither step copies more than one chunk at a
#: time, and short orbits allocate little.
_CHUNK = 16


class _History:
    """Every row's section returns so far, for batched detection.

    Column k of entry [i, p] holds, for row p after i returns: 0 its
    phases, 1 FTD entries and 2 their senders (LockstepReturns' layout),
    then 3 the time and 4-5 the deliveries (LockstepReturns' when and
    mult) of its i-th return.  Entry 0 is the start, with no deliveries.
    Entries are stored in chunks, chunk c from entry starts[c] on, each
    padded to its own widest entry and sized to its own integer types.
    Only stored entries are ever written, so the unused part of the last
    chunk is not touched.
    """

    def __init__(self, n: int, phases: np.ndarray, ftds: np.ndarray, senders: np.ndarray) -> None:
        self.n = n
        self.fills = (0.0, 0.0, n, 0.0, 0.0, 0)
        self.chunks: list[list[np.ndarray]] = []
        self.starts: list[int] = []
        self.filled = 0
        rows = len(phases)
        no_deliveries = [np.zeros((rows, 0)), np.zeros((rows, n, 0))]
        self._store([phases, ftds, senders, np.zeros((rows, 1)), *no_deliveries])

    def append(self, out: LockstepReturns) -> None:
        """Store every row's return."""
        self._store([out.phases, out.ftds, out.senders, out.elapsed[:, None], out.when, out.mult])

    def _store(self, entry: list[np.ndarray]) -> None:
        entry[2] = entry[2].astype(np.min_scalar_type(self.n))
        entry[5] = entry[5].astype(np.min_scalar_type(int(entry[5].max(initial=0))))
        if not self.chunks or self._used(len(self.chunks) - 1) == len(self.chunks[-1][0]):
            size = _CHUNK << min(len(self.chunks), 3)
            self.starts.append(self.filled)
            self.chunks.append([np.empty((size, *e.shape), e.dtype) for e in entry])
        at = self.filled - self.starts[-1]
        chunk = self.chunks[-1]
        for k, (e, fill) in enumerate(zip(entry, self.fills)):
            width = e.shape[-1]
            if width > chunk[k].shape[-1] or not np.can_cast(e.dtype, chunk[k].dtype):
                grown = np.empty(
                    (*chunk[k].shape[:-1], max(width, chunk[k].shape[-1])),
                    np.result_type(e, chunk[k]),
                )
                grown[:at, ..., : chunk[k].shape[-1]] = chunk[k][:at]
                grown[:at, ..., chunk[k].shape[-1] :] = fill
                chunk[k] = grown
            chunk[k][at, ..., :width] = e
            chunk[k][at, ..., width:] = fill
        self.filled += 1

    def _used(self, c: int) -> int:
        return min(len(self.chunks[c][0]), self.filled - self.starts[c])

    def gather(self, cols, at: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
        """Columns cols of the entries [at[s], rows[s]], padded to a common
        width."""
        chunk_of = np.searchsorted(self.starts, at, side="right") - 1
        at = at - np.asarray(self.starts)[chunk_of]
        which = np.flatnonzero(np.bincount(chunk_of)).tolist()
        out = []
        for k in cols:
            parts = [self.chunks[c][k] for c in which] or [self.chunks[0][k]]
            width = max(part.shape[-1] for part in parts)
            got = np.full(
                (len(at), *parts[0].shape[2:-1], width), self.fills[k], np.result_type(*parts)
            )
            for c, part in zip(which, parts):
                pick = chunk_of == c
                got[pick, ..., : part.shape[-1]] = part[at[pick], rows[pick]]
            out.append(got)
        return out

    def match(self, phases, ftds, senders, tol: float) -> np.ndarray:
        """For each row, the earliest entry its given state matches by
        detection's rule, or -1: phase 0 within tol, then equal row
        lengths (equal padded senders) and state_distance <= tol.  The
        FTDs are compared only where every phase is within tol."""
        p0 = phases[:, 0]
        lo, hi = p0 - tol, p0 + tol
        matched = np.full(len(phases), -1)
        for c, chunk in enumerate(self.chunks):
            old = chunk[0][: self._used(c), :, 0]
            at, row = np.nonzero((old >= lo) & (old <= hi))
            near = np.abs(chunk[0][at, row] - phases[row]).max(axis=1) <= tol
            at, row = at[near], row[near]
            if not at.size:
                continue
            width = max(ftds.shape[1], chunk[1].shape[-1])
            hit = (
                _widen(chunk[2][at, row], width, self.n) == _widen(senders[row], width, self.n)
            ).all(axis=1) & (
                np.abs(_widen(chunk[1][at, row], width, 0.0) - _widen(ftds[row], width, 0.0)).max(
                    axis=1, initial=0.0
                )
                <= tol
            )
            row, first = np.unique(row[hit], return_index=True)
            fresh = matched[row] < 0
            matched[row[fresh]] = self.starts[c] + at[hit][first][fresh]
        return matched

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the rows the boolean mask selects, in order."""
        kept = int(rows.sum())
        for c, chunk in enumerate(self.chunks):
            used = self._used(c)
            for k, column in enumerate(chunk):
                chunk[k] = np.empty((len(column), kept, *column.shape[2:]), column.dtype)
                chunk[k][:used] = column[:used, rows]


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

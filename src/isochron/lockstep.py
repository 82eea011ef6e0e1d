"""Section returns of many networks at once, on float64 arrays.

Independent networks with the same parameters can advance in lockstep:
every step moves each one to its own next timestamp with the scalar
engine's float operations, in its order, so each ends bit for bit where
its own Engine would.  Only batched detection
(poincare.detect_periodicity_many) imports this module, so runs that
never batch do not load it, nor numpy with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    COINCIDENCE_TOL,
    Engine,
    EngineStallError,
    HorizonExceededError,
    NetworkState,
    Record,
)
from .model import ModelParams, jump_coeffs


@dataclass(frozen=True)
class LockstepReturns:
    """One section return of every row of a LockstepEngine.  Row r's state
    is phases[r] plus the FTD entries ftds[r, q] of senders[r, q], ordered
    by sender and then ascending, with the empty slots at the end (sender
    n, entry 0.0).  Row r's receptions are the slice bounds[r]:bounds[r+1]
    of recipients, multiplicities and times, in the order
    run_until_section records them.  errors maps a row to what the scalar
    engine raised for it; that row's other fields are meaningless."""

    phases: np.ndarray
    ftds: np.ndarray
    senders: np.ndarray
    elapsed: np.ndarray
    recipients: np.ndarray
    multiplicities: np.ndarray
    times: np.ndarray
    bounds: np.ndarray
    errors: dict[int, Exception]


class LockstepEngine(Engine):
    """Section returns of many networks with the same parameters at once,
    on float64 arrays.

    Row r starts as init_engine(params, states[r]) would.  Each
    run_until_section(record="receptions") runs every row to the next fire
    of the last oscillator, returns a LockstepReturns and restarts each
    row at clock 0 from the state it exported, as detect_periodicity
    starts a new engine for each return.  All rows advance one timestamp
    per step with Engine._advance's float operations, in the same order,
    so every row ends bit for bit where the scalar run ends.  A row whose
    return leaves that common path -- a same-timestamp cascade, a
    timestamp with no event, the max_time horizon or the max_steps budget
    -- is replayed from its start on a scalar Engine, which handles it or
    raises exactly as for a single network.

    It is an Engine so that run_until_section stays the one entry point of
    a section return, batched or not (perfbench/tracer.py counts engine
    work there), and events_processed counts the events the rows' scalar
    engines would process.  The single-network methods (step, simulate,
    state, ...) do not apply to it.
    """

    def __init__(self, params: ModelParams, states: list[NetworkState]) -> None:
        # No Engine.__init__: there is no single clock, phase list or heap.
        self.params = params
        self.events_processed = 0
        n, tau = params.n, params.tau
        rows = len(states)
        width = max((sum(map(len, s.ftds)) for s in states), default=0)
        # Each row's start: phases, and its pulses in flight as delivery
        # times and senders in init_engine's order, empty slots (inf, n).
        self.phases = np.array([s.phases for s in states], dtype=float).reshape(rows, n)
        self.times = np.full((rows, width), np.inf)
        self.senders = np.full((rows, width), n)
        for r, s in enumerate(states):
            pulses = [(tau - x, i) for i, row in enumerate(s.ftds) for x in row]
            if pulses:
                self.times[r, : len(pulses)], self.senders[r, : len(pulses)] = zip(*pulses)
        # jump_coeffs by multiplicity; grows to the largest one a step meets.
        self._coeffs = _coeff_table(params, 1)

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the rows the boolean mask selects, in order."""
        self.phases, self.times, self.senders = self.phases[rows], self.times[rows], self.senders[rows]

    def _section_return(
        self, k: int, max_time: float, max_steps: int, record: Record
    ) -> LockstepReturns:
        params = self.params
        n, tau = params.n, params.tau
        if k != n - 1 or record != "receptions":
            raise ValueError(
                'a LockstepEngine runs returns of the last oscillator with record="receptions"'
            )
        phases, times, senders = self.phases, self.times, self.senders
        rows = len(phases)
        at_threshold = 1.0 - COINCIDENCE_TOL
        oscillators = np.arange(n)

        # Each row's pulses form a queue in delivery order: a timestamp
        # delivers a prefix of the pending pulses (their slots turn to inf)
        # and its fires fill the next n slots (inf where an oscillator did
        # not fire), because a pulse sent now lands no earlier than a
        # pending one.
        row_ix = np.arange(rows)[:, None]
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

        for _ in range(max_steps):
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
            bad = (t_star > max_time) | ~(fired | got.any(axis=1))
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

            done = fire[:, k] & ~bad
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
        r, j = np.nonzero(mults > 0)
        rec = [stepped[r], j, mults[r, j], at[r]]
        if replay:
            ran = ~np.isin(stepped, replay)
            mults, fires = mults[ran], fires[ran]
            kept = ~np.isin(rec[0], replay)
            rec = [col[kept] for col in rec]
        # Engine._advance's count: one event per distinct multiplicity a
        # delivery hands out, and one per fire.
        mults.sort(axis=1)
        self.events_processed += int(
            np.count_nonzero(mults[:, 1:] != mults[:, :-1])
            + np.count_nonzero(mults[:, 0])
            + np.count_nonzero(fires)
        )

        errors: dict[int, Exception] = {}
        replayed: list[tuple[int, int, int, float]] = []
        for row in sorted(replay):
            eng = Engine(params)
            eng.theta = phases[row].tolist()
            for t, sender in zip(times[row].tolist(), senders[row].tolist()):
                if sender < n:
                    eng.schedule_pulse(t, sender)
            try:
                state, took, got = eng._section_return(k, max_time, max_steps, record)
            except (EngineStallError, HorizonExceededError) as exc:
                errors[row] = exc  # the caller raises it, in its own order
                continue
            finally:
                self.events_processed += eng.events_processed
            entries = [(i, x) for i, ftd in enumerate(state.ftds) for x in ftd]
            out_ftds = _widen(out_ftds, len(entries), 0.0)
            out_senders = _widen(out_senders, len(entries), n)
            end_theta[row], end_clock[row] = state.phases, took
            out_senders[row], out_ftds[row] = n, 0.0
            if entries:
                out_senders[row, : len(entries)], out_ftds[row, : len(entries)] = zip(*entries)
            replayed.extend((row, *reception) for reception in got)
        if replayed:
            rec = [
                np.concatenate([col, np.asarray(add, dtype=col.dtype)])
                for col, add in zip(rec, zip(*replayed))
            ]
        grouped = np.argsort(rec[0], kind="stable")
        rec_rows, recipients, multiplicities, at = (col[grouped] for col in rec)
        width = int(np.count_nonzero(out_senders < n, axis=1).max(initial=0))
        out_ftds, out_senders = out_ftds[:, :width], out_senders[:, :width]

        # The next return starts where this one ended, as _engine_from
        # starts an engine from the exported state.
        self.phases = end_theta
        self.times = np.where(out_senders < n, tau - out_ftds, np.inf)
        self.senders = out_senders
        return LockstepReturns(
            phases=end_theta,
            ftds=out_ftds,
            senders=out_senders,
            elapsed=end_clock,
            recipients=recipients,
            multiplicities=multiplicities,
            times=at,
            bounds=np.searchsorted(rec_rows, np.arange(rows + 1)),
            errors=errors,
        )


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

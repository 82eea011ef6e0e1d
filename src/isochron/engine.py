"""Exact event-driven simulation of all-to-all delayed pulse coupling.

Between events every phase grows at unit rate, so the simulation jumps from
event to event instead of integrating: the next event is either the earliest
pending pulse delivery or the earliest threshold crossing by flow.  State is
a phase vector plus, per oscillator, the multiset of its firing-time
distances (FTDs): how long ago, within the trailing delay window [0, tau],
it fired.  Each such firing has exactly one pulse still in flight, so the
FTD sets and the pending-pulse queue are two views of the same information.

Within one timestamp, pulse receptions are processed before fires: a
reception applies to the pre-reset phase, and the reset to 0 happens after.
Deliveries closer together than ``COINCIDENCE_TOL`` count as simultaneous
and their multiplicities add per receiver.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import Iterable, Literal

from .model import DomainError, ModelParams, jump_m

#: Two event times closer than this are treated as one timestamp, and a
#: phase within this distance of 1 is at threshold.
COINCIDENCE_TOL = 1e-12

#: What a run appends per timestamp: TraceEvents, reception tuples or nothing.
Record = Literal["events", "receptions", None]

#: Safety cap on same-timestamp cascade rounds (only reachable for tau = 0
#: with couplings strong enough to re-fire an oscillator from phase 0).
_MAX_CASCADE_ROUNDS = 64


class StateError(ValueError):
    """A network state violates one of its structural invariants."""


class HorizonExceededError(RuntimeError):
    """No section crossing happened within the configured time bound."""


class EngineStallError(RuntimeError):
    """The engine could not make progress (cascade bound exhausted)."""


@dataclass(frozen=True)
class NetworkState:
    """Snapshot determining all future dynamics.

    phases   one phase per oscillator, each in [0, 1)
    ftds     per oscillator, ascending firing-time distances in [0, tau];
             an entry sigma means "fired sigma ago", so its pulse reaches
             the others tau - sigma from now
    """

    phases: tuple[float, ...]
    ftds: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.phases)


def network_state(phases: Iterable[float], ftds: Iterable[Iterable[float]]) -> NetworkState:
    """Build a NetworkState, normalizing FTD order (ascending)."""
    return NetworkState(
        phases=tuple(float(p) for p in phases),
        ftds=tuple(tuple(sorted(float(s) for s in row)) for row in ftds),
    )


def validate_state(params: ModelParams, state: NetworkState) -> None:
    """Raise StateError naming the violated invariant, if any."""
    if len(state.phases) != params.n or len(state.ftds) != params.n:
        raise StateError(
            f"state is for {len(state.phases)} phases / {len(state.ftds)} FTD rows, "
            f"params say n={params.n}"
        )
    for i, p in enumerate(state.phases):
        if not (0.0 <= p < 1.0) or not math.isfinite(p):
            raise StateError(f"phase of oscillator {i + 1} must lie in [0, 1), got {p}")
    for i, row in enumerate(state.ftds):
        for s in row:
            if not (0.0 <= s <= params.tau) or not math.isfinite(s):
                raise StateError(
                    f"firing-time distance {s} of oscillator {i + 1} outside [0, tau={params.tau}]"
                )
        if any(a > b for a, b in zip(row, row[1:])):
            raise StateError(f"FTDs of oscillator {i + 1} not ascending: {row}")


def is_section_state(state: NetworkState, k: int | None = None) -> bool:
    """True if oscillator k (default: the last) just fired: phase 0, FTD 0."""
    k = state.n - 1 if k is None else k
    return state.phases[k] == 0.0 and any(s == 0.0 for s in state.ftds[k])


@dataclass(frozen=True)
class TraceEvent:
    """One processed event.

    kind           "pulse" (a delivery) or "fire" (a reset)
    time           absolute engine time
    participants   receivers of the delivery, or the single firing oscillator
                   (0-based; external exports are 1-based)
    multiplicity   pulses received simultaneously (deliveries only)
    """

    kind: Literal["pulse", "fire"]
    time: float
    participants: tuple[int, ...]
    multiplicity: int | None = None


@dataclass(frozen=True)
class PendingPulse:
    """A pulse in flight: emitted by ``sender``, reaching all others at
    ``deliver_at`` with the sender's multiplicity (1 per firing)."""

    deliver_at: float
    sender: int
    multiplicity: int = 1


def format_trace_text(events: Iterable[TraceEvent]) -> str:
    """Render events one per line, e.g. ``P (1,2) t=0.145 m=1`` / ``F 1 t=0.145``."""
    lines = []
    for ev in events:
        ids = ",".join(str(i + 1) for i in ev.participants)
        if ev.kind == "pulse":
            lines.append(f"P ({ids}) t={ev.time!r} m={ev.multiplicity}")
        else:
            lines.append(f"F {ids} t={ev.time!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def format_trace_jsonl(events: Iterable[TraceEvent]) -> str:
    """Render events as JSON lines with the same content as the text form."""
    lines = []
    for ev in events:
        rec: dict = {"kind": ev.kind, "time": ev.time}
        if ev.kind == "pulse":
            rec["recipients"] = [i + 1 for i in ev.participants]
            rec["multiplicity"] = ev.multiplicity
        else:
            rec["oscillator"] = ev.participants[0] + 1
        lines.append(json.dumps(rec))
    return "\n".join(lines) + ("\n" if lines else "")


class Engine:
    """Event-driven integrator for one network.

    Use :func:`init_engine` to build one from a NetworkState.  ``step()``
    advances to and processes the next timestamp and returns its events;
    ``state()`` exports the canonical NetworkState at the current clock.
    """

    def __init__(self, params: ModelParams) -> None:
        self.params = params
        self.clock = 0.0
        self.theta: list[float] = [0.0] * params.n
        # heap entries: (deliver_at, insertion seq, sender, multiplicity)
        self._heap: list[tuple[float, int, int, int]] = []
        self._seq = 0
        self.events_processed = 0

    # -- construction -------------------------------------------------------

    def schedule_pulse(self, deliver_at: float, sender: int, multiplicity: int = 1) -> None:
        heapq.heappush(self._heap, (deliver_at, self._seq, sender, multiplicity))
        self._seq += 1

    # -- inspection ---------------------------------------------------------

    def pending_pulses(self) -> list[PendingPulse]:
        """Pulses in flight, ordered by (deliver_at, insertion order)."""
        return [
            PendingPulse(deliver_at=t, sender=s, multiplicity=m)
            for (t, _, s, m) in sorted(self._heap)
        ]

    def next_event_time(self) -> float:
        """Absolute time of the next event (pulse delivery or flow fire)."""
        t_fire = self.clock + 1.0 - max(self.theta)
        if self._heap:
            return min(t_fire, self._heap[0][0])
        return t_fire

    def state(self) -> NetworkState:
        """Canonical snapshot: phases plus FTDs rebuilt from pulses in flight.

        Every firing within the trailing window still has its pulse pending
        (delivery happens exactly tau after the firing), so
        sigma = clock + tau - deliver_at enumerates the window's firings.
        """
        tau = self.params.tau
        rows: list[list[float]] = [[] for _ in range(self.params.n)]
        for (t, _, sender, mult) in self._heap:
            sigma = self.clock + tau - t
            sigma = 0.0 if sigma < 0.0 else (tau if sigma > tau else sigma)
            rows[sender].extend([sigma] * mult)
        return NetworkState(
            phases=tuple(self.theta),
            ftds=tuple(tuple(sorted(row)) for row in rows),
        )

    def _where(self) -> str:
        """Clock, raw phases and pulses in flight, for error messages."""
        return (
            f" (clock={self.clock!r}, theta={self.theta!r},"
            f" pulses in flight={len(self._heap)})"
        )

    # -- dynamics -----------------------------------------------------------

    def _advance(self, t_star: float, record: Record, out: list, k: int) -> bool:
        """Move the clock to t_star and process that timestamp completely.

        Each cascade round delivers every pulse due now (within tolerance),
        aggregated per receiver, and then fires every oscillator at
        threshold; rounds repeat while the fires put new pulses due now
        (tau = 0).  ``record`` says what to append to ``out``: TraceEvents
        ("events"), (recipient, multiplicity, time) per reception
        ("receptions", in recipient order within a round), or nothing
        (None).  ``events_processed`` counts the same events in every mode.
        Returns whether oscillator k fired.
        """
        params = self.params
        n = params.n
        theta = self.theta
        heap = self._heap
        dt = t_star - self.clock
        if dt > 0.0:
            for i in range(n):
                theta[i] += dt
        self.clock = t_star

        due = t_star + COINCIDENCE_TOL
        at_threshold = 1.0 - COINCIDENCE_TOL
        count = 0
        k_fired = False
        for _ in range(_MAX_CASCADE_ROUNDS):
            if heap and heap[0][0] <= due:
                mult = [0] * n
                while heap and heap[0][0] <= due:
                    _, _, sender, m = heapq.heappop(heap)
                    for j in range(n):
                        if j != sender:
                            mult[j] += m
                if record == "events":
                    # Group receivers by multiplicity for the trace.
                    by_m: dict[int, list[int]] = {}
                    for j, m in enumerate(mult):
                        if m > 0:
                            by_m.setdefault(m, []).append(j)
                    for m in sorted(by_m):
                        out.append(TraceEvent("pulse", t_star, tuple(by_m[m]), multiplicity=m))
                    count += len(by_m)
                else:
                    # One pulse event per distinct multiplicity, as traced.
                    count += len(set(mult)) - (0 in mult)
                    if record == "receptions":
                        out.extend((j, m, t_star) for j, m in enumerate(mult) if m > 0)
                for j, m in enumerate(mult):
                    if m > 0:
                        theta[j] = min(1.0, jump_m(params, theta[j], m))

            for i in range(n):
                if theta[i] >= at_threshold:
                    if record == "events":
                        out.append(TraceEvent("fire", t_star, (i,)))
                    theta[i] = 0.0
                    self.schedule_pulse(t_star + params.tau, i)
                    count += 1
                    if i == k:
                        k_fired = True

            if not (heap and heap[0][0] <= due):
                break
        else:
            raise EngineStallError(
                f"same-timestamp cascade exceeded {_MAX_CASCADE_ROUNDS} rounds at t={t_star}"
                + self._where()
            )

        if not count:
            raise EngineStallError(f"no event constructed at t={t_star}" + self._where())
        self.events_processed += count
        return k_fired

    def step(self) -> list[TraceEvent]:
        """Advance to the next timestamp, process it fully, return its events."""
        events: list[TraceEvent] = []
        self._advance(self.next_event_time(), "events", events, -1)
        return events

    def run_until_section(
        self,
        k: int | None = None,
        max_time: float = 100.0,
        max_steps: int = 1_000_000,
        *,
        record: Record = "events",
    ) -> tuple[NetworkState, float, list]:
        """Advance until oscillator k fires (default: the last oscillator).

        Returns (canonical state at the crossing, elapsed time, record).
        The record is the run's TraceEvents by default, its receptions as
        (recipient, multiplicity, time) tuples for ``record="receptions"``,
        and empty for ``record=None``, which builds no trace at all.  The
        crossing timestamp is processed completely before exporting, so
        the returned state has phase 0 and a 0 FTD entry for oscillator k.
        A lockstep.LockstepEngine runs a section return of many networks
        through this same entry point.
        """
        k = self.params.n - 1 if k is None else k
        return self._section_return(k, max_time, max_steps, record)

    def _section_return(
        self, k: int, max_time: float, max_steps: int, record: Record
    ) -> tuple[NetworkState, float, list]:
        """run_until_section with k resolved; subclasses replace it."""
        start = self.clock
        out: list = []
        for _ in range(max_steps):
            t_star = self.next_event_time()
            if t_star - start > max_time:
                raise HorizonExceededError(
                    f"oscillator {k + 1} did not fire within {max_time} time units"
                    + self._where()
                )
            if self._advance(t_star, record, out, k):
                return self.state(), self.clock - start, out
        raise HorizonExceededError(
            f"oscillator {k + 1} did not fire within {max_steps} events" + self._where()
        )

    def simulate(self, horizon: float) -> list[TraceEvent]:
        """Process every event with time <= horizon (+ tolerance); return them.

        A horizon shorter than the first event yields an empty trace; a
        non-finite one raises DomainError.
        """
        if not math.isfinite(horizon):
            raise DomainError(f"horizon must be finite, got {horizon}")
        events: list[TraceEvent] = []
        while True:
            t_star = self.next_event_time()
            if not t_star <= horizon + COINCIDENCE_TOL:
                return events
            self._advance(t_star, "events", events, -1)


def init_engine(params: ModelParams, state: NetworkState) -> Engine:
    """Start an engine at clock 0 from a validated state.

    Every FTD entry sigma becomes one pulse in flight reaching the other
    oscillators at time tau - sigma (an entry of exactly tau delivers at 0).
    """
    validate_state(params, state)
    return _engine_from(params, state)


def _engine_from(params: ModelParams, state: NetworkState) -> Engine:
    """init_engine without validation, for states already validated or
    exported by an engine."""
    eng = Engine(params)
    eng.theta = list(state.phases)
    for i, row in enumerate(state.ftds):
        for sigma in row:
            eng.schedule_pulse(params.tau - sigma, i)
    return eng

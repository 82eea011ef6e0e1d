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

#: Safety cap on same-timestamp cascade rounds (only reachable for
#: tau <= COINCIDENCE_TOL, where a fire's own pulses are due at once, with
#: couplings strong enough to re-fire an oscillator from phase 0).
_MAX_CASCADE_ROUNDS = 64

#: Safety caps on one section return, in events and in time units; a
#: return that needs more raises HorizonExceededError.
_MAX_SECTION_EVENTS = 1_000_000
_MAX_SECTION_TIME = 100.0


class StateError(ValueError):
    """A network state violates one of its structural invariants."""


class HorizonExceededError(RuntimeError):
    """No section crossing happened within _MAX_SECTION_TIME or _MAX_SECTION_EVENTS."""


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


def is_section_state(state: NetworkState) -> bool:
    """True if the last oscillator just fired: phase 0, FTD 0."""
    return state.phases[-1] == 0.0 and 0.0 in state.ftds[-1]


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

    ``Engine(params, state)`` starts at clock 0 from a state, trusting it;
    :func:`init_engine` validates the state first.  Every FTD entry sigma
    becomes one pulse in flight reaching the other oscillators at time
    tau - sigma (an entry of exactly tau delivers at 0).  ``step()``
    advances to and processes the next timestamp and returns its events;
    ``state()`` exports the canonical NetworkState at the current clock.
    """

    def __init__(self, params: ModelParams, state: NetworkState) -> None:
        self.params = params
        self.clock = 0.0
        self.theta: list[float] = list(state.phases)
        # heap entries: (deliver_at, sender), one per pulse in flight
        tau = params.tau
        self._heap = [(tau - sigma, i) for i, row in enumerate(state.ftds) for sigma in row]
        heapq.heapify(self._heap)
        self.events_processed = 0

    # -- inspection ---------------------------------------------------------

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
        for t, sender in self._heap:
            sigma = self.clock + tau - t
            rows[sender].append(0.0 if sigma < 0.0 else (tau if sigma > tau else sigma))
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

    def _advance(self, t_star: float, trace: bool, out: list) -> bool:
        """Move the clock to t_star and process that timestamp completely.

        Each cascade round delivers every pulse due now (within tolerance),
        each receiver getting the due pulses of all other senders as one
        multiplicity, and then fires every oscillator at
        threshold; rounds repeat while the fires put new pulses due now
        (tau <= COINCIDENCE_TOL).  With ``trace`` each round appends its
        TraceEvents to ``out``; without, a round that delivers appends its
        delivery (t_star, multiplicities), one multiplicity per oscillator
        and 0 for none.  ``events_processed`` counts the same events either
        way.  Returns whether the last oscillator fired.
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
        last_fired = False
        for _ in range(_MAX_CASCADE_ROUNDS):
            if heap and heap[0][0] <= due:
                sent = [0] * n
                while heap and heap[0][0] <= due:
                    sent[heapq.heappop(heap)[1]] += 1
                total = sum(sent)
                mult = [total - s for s in sent]
                if trace:
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
                    out.append((t_star, mult))
                for j, m in enumerate(mult):
                    if m > 0:
                        theta[j] = min(1.0, jump_m(params, theta[j], m))

            for i in range(n):
                if theta[i] >= at_threshold:
                    if trace:
                        out.append(TraceEvent("fire", t_star, (i,)))
                    theta[i] = 0.0
                    heapq.heappush(heap, (t_star + params.tau, i))
                    count += 1
                    if i == n - 1:
                        last_fired = True

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
        return last_fired

    def step(self) -> list[TraceEvent]:
        """Advance to the next timestamp, process it fully, return its events."""
        events: list[TraceEvent] = []
        self._advance(self.next_event_time(), True, events)
        return events

    def run_until_section(self, *, trace: bool = False) -> tuple[NetworkState, float, list]:
        """Advance until the last oscillator fires.

        Returns (canonical state at the crossing, elapsed time, deliveries).
        The deliveries are the return's delivery rounds in order, each a
        (time, multiplicities) pair with one multiplicity per oscillator
        (0: none); a same-timestamp cascade gives several at one time.
        With ``trace=True`` the third item is the run's TraceEvents
        instead.  The crossing timestamp is processed completely before
        exporting, so the returned state has phase 0 and a 0 FTD entry for
        the last oscillator.  A return longer than _MAX_SECTION_TIME time
        units or _MAX_SECTION_EVENTS events raises HorizonExceededError.
        A lockstep.LockstepEngine runs a section return of many networks
        through this same entry point.
        """
        return self._section_return(trace)

    def _section_return(self, trace: bool) -> tuple[NetworkState, float, list]:
        """run_until_section's body; subclasses replace it."""
        start = self.clock
        out: list = []
        for _ in range(_MAX_SECTION_EVENTS):
            t_star = self.next_event_time()
            if t_star - start > _MAX_SECTION_TIME:
                raise HorizonExceededError(
                    f"oscillator {self.params.n} did not fire within"
                    f" {_MAX_SECTION_TIME} time units" + self._where()
                )
            if self._advance(t_star, trace, out):
                return self.state(), self.clock - start, out
        raise HorizonExceededError(
            f"oscillator {self.params.n} did not fire within {_MAX_SECTION_EVENTS} events"
            + self._where()
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
            self._advance(t_star, True, events)


def init_engine(params: ModelParams, state: NetworkState) -> Engine:
    """Validate a state, then start an Engine at clock 0 from it."""
    validate_state(params, state)
    return Engine(params, state)

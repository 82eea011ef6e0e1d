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
from operator import ne, sub

from ._serial import Record
from .engine import (
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
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
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
                length = i - j
                minimal = _minimal_cycle(states, j, length, tol)
                orbit_period = sum(returns[j : j + minimal])
                # Receptions timed from the cycle start; one at the period
                # boundary belongs to offset 0 of the next pass.
                receptions = []
                cycle_time = 0.0
                for idx in range(j, j + minimal):
                    for r, m, t in received[idx]:
                        offset = cycle_time + t
                        if offset >= orbit_period - DEFAULT_MATCH_TOL:
                            offset = 0.0
                        receptions.append((r, m, offset))
                    cycle_time += returns[idx]
                receptions.sort(key=lambda rec: (rec[2], rec[0]))
                return PeriodicityResult(
                    transient_iters=j,
                    poincare_period=minimal,
                    orbit_period=orbit_period,
                    detected_period=length,
                    return_times=tuple(returns[j : j + minimal]),
                    cycle_states=tuple(states[j : j + minimal]),
                    receptions=tuple(receptions),
                )
        states.append(new)
        bisect.insort(by_phase0, (new.phases[0], i))

    return NotPeriodic(iterations=max_iter, last_state=new)


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

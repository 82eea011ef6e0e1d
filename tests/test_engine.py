"""Unit tests for the event engine: scheduling exactness, reception
semantics (pulses before fires, multiplicity aggregation, clamping),
canonical state export, and the hand-derived event sequence of the
rotating-wave orbit used throughout the analytic layer."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isochron import engine
from isochron.engine import (
    Engine,
    EngineStallError,
    HorizonExceededError,
    NetworkState,
    StateError,
    format_trace_jsonl,
    format_trace_text,
    init_engine,
    is_section_state,
    network_state,
    validate_state,
)
from isochron.lockstep import LockstepEngine, _bad_rows, _decode, _encode, _row_distance
from isochron.model import DomainError, ModelParams, jump, jump_m
from isochron.poincare import require_section_state, state_distance

P = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)

JUMP_029 = 0.7648723076637269  # jump(0.29, 0.29) at b=3


def rotating_wave_state(tau: float) -> NetworkState:
    """The equal-spacing section state (sigma = (tau/2, tau/4, 3*tau/4))
    written out by hand: phases (jump(tau/2), tau/4, 0) and one firing
    memory per oscillator, plus the just-now firing of oscillator 3."""
    return network_state(
        phases=(jump(P, tau / 2, P.eps_hat), tau / 4, 0.0),
        ftds=((tau / 2,), (tau / 4,), (0.0, 3 * tau / 4)),
    )


class TestStateValidation:
    def test_round_trip_through_engine(self):
        state = rotating_wave_state(P.tau)
        out = init_engine(P, state).state()
        assert out.phases == pytest.approx(state.phases, abs=1e-15)
        for row_out, row_in in zip(out.ftds, state.ftds):
            assert row_out == pytest.approx(row_in, abs=1e-15)

    def test_network_state_sorts_ftds(self):
        st = network_state((0.1, 0.2, 0.0), ((0.4, 0.1), (), (0.0,)))
        assert st.ftds[0] == (0.1, 0.4)

    def test_rejects_bad_shapes_and_ranges(self):
        with pytest.raises(StateError):
            validate_state(P, network_state((0.1, 0.2), ((), ())))
        with pytest.raises(StateError):
            validate_state(P, network_state((1.0, 0.2, 0.0), ((), (), (0.0,))))
        with pytest.raises(StateError):
            validate_state(P, network_state((-0.1, 0.2, 0.0), ((), (), (0.0,))))
        with pytest.raises(StateError):
            validate_state(P, network_state((0.1, 0.2, 0.0), ((0.59,), (), (0.0,))))
        with pytest.raises(StateError):
            validate_state(
                P, NetworkState(phases=(0.1, 0.2, 0.0), ftds=((0.4, 0.1), (), (0.0,)))
            )

    def test_is_section_state(self):
        assert is_section_state(rotating_wave_state(P.tau))
        assert not is_section_state(network_state((0.1, 0.2, 0.0), ((), (), (0.3,))))


class TestScheduling:
    def test_pulse_delivered_exactly_delay_after_fire(self):
        p = ModelParams(b=3.0, eps=0.1, n=3, tau=0.37)
        eng = init_engine(p, network_state((0.9, 0.1, 0.0), ((), (), ())))
        events = eng.step()
        assert [e.kind for e in events] == ["fire"]
        t_fire = events[0].time
        assert t_fire == pytest.approx(0.1, abs=1e-15)
        assert eng._heap == [(t_fire + p.tau, 0)]  # bit-exact, sent by oscillator 1

    def test_next_event_prefers_earlier_pulse(self):
        eng = init_engine(P, network_state((0.5, 0.1, 0.0), ((0.5,), (), ())))
        # pulse due at tau - 0.5 = 0.08, flow fire would be at 0.5
        assert eng.next_event_time() == pytest.approx(0.08, abs=1e-15)

    def test_ftd_of_exactly_tau_delivers_immediately(self):
        eng = init_engine(P, network_state((0.2, 0.1, 0.0), ((P.tau,), (), ())))
        events = eng.step()
        assert events[0].kind == "pulse"
        assert events[0].time == pytest.approx(0.0, abs=1e-15)
        assert events[0].participants == (1, 2)


class TestReceptionSemantics:
    def test_single_pulse_applies_jump(self):
        eng = init_engine(P, network_state((0.2, 0.1, 0.0), ((0.5,), (), ())))
        eng.step()  # delivery at 0.08 from oscillator 1
        st = eng.state()
        assert st.phases[1] == pytest.approx(jump(P, 0.18, P.eps_hat), abs=1e-14)
        assert st.phases[2] == pytest.approx(jump(P, 0.08, P.eps_hat), abs=1e-14)
        assert st.phases[0] == pytest.approx(0.28, abs=1e-15)  # sender not a recipient
        assert st.ftds[0] == ()  # consumed pulse leaves the canonical state

    def test_simultaneous_pulses_aggregate_multiplicity(self):
        # Oscillators 1 and 2 fired 0.3 ago, so both pulses land at 0.28:
        # oscillator 3 receives m=2, each sender receives the other's m=1.
        weak = ModelParams(b=3.0, eps=0.1, n=3, tau=0.58)
        eng = init_engine(weak, network_state((0.05, 0.02, 0.0), ((0.3,), (0.3,), ())))
        events = eng.step()
        pulses = [e for e in events if e.kind == "pulse"]
        assert {(e.participants, e.multiplicity) for e in pulses} == {
            ((0, 1), 1),
            ((2,), 2),
        }
        st = eng.state()
        assert st.phases[2] == pytest.approx(jump_m(weak, 0.28, 2), abs=1e-14)

    def test_pulse_processed_before_fire_at_same_timestamp(self):
        # Receiver sits just below threshold when the pulse lands: the
        # reception applies to the pre-reset phase and triggers the fire.
        eng = init_engine(P, network_state((0.6, 0.1, 0.0), ((0.5,), (), ())))
        events = eng.step()  # at t = 0.08: pulse to (2,3), then oscillator 1? no:
        # oscillator 1 is the sender; phase 0.6 + 0.08 = 0.68 keeps flowing.
        assert [e.kind for e in events] == ["pulse"]
        eng2 = init_engine(P, network_state((0.1, 0.9, 0.0), ((0.5,), (), ())))
        events2 = eng2.step()
        assert [(e.kind, e.participants) for e in events2] == [
            ("pulse", (1, 2)),
            ("fire", (1,)),
        ]
        assert eng2.state().phases[1] == 0.0

    def test_jump_clamps_at_threshold(self):
        eng = init_engine(P, network_state((0.1, 0.95, 0.0), ((0.5,), (), ())))
        eng.step()
        st = eng.state()
        assert st.phases[1] == 0.0  # fired: clamped to 1, then reset
        assert any(s == pytest.approx(0.0) for s in st.ftds[1])

    def test_fire_by_flow_resets_and_schedules(self):
        eng = init_engine(P, network_state((0.75, 0.5, 0.0), ((), (), ())))
        events = eng.step()
        assert [(e.kind, e.participants) for e in events] == [("fire", (0,))]
        st = eng.state()
        assert st.phases[0] == 0.0
        assert st.ftds[0] == (0.0,)
        assert st.phases[1] == pytest.approx(0.75, abs=1e-15)


class TestCascade:
    def test_zero_delay_synchronous_firing(self):
        p = ModelParams(b=3.0, eps=0.58, n=3, tau=0.0)
        eng = init_engine(p, network_state((0.0, 0.0, 0.0), ((), (), ())))
        events = eng.step()
        assert [e.kind for e in events] == ["fire", "fire", "fire", "pulse"]
        assert events[3].participants == (0, 1, 2)
        assert events[3].multiplicity == 2
        assert eng.state().phases == pytest.approx([jump_m(p, 0.0, 2)] * 3)

    def test_synchronous_state_is_fixed_with_delay(self):
        # All firing together with full memory of that firing: one period
        # later the same state recurs, with return time exactly tau.
        sync = network_state((0.0, 0.0, 0.0), ((0.0,), (0.0,), (0.0,)))
        eng = init_engine(P, sync)
        state, elapsed, events = eng.run_until_section(trace=True)
        assert elapsed == pytest.approx(P.tau, abs=1e-15)
        assert state.phases == (0.0, 0.0, 0.0)
        assert state.ftds == ((0.0,), (0.0,), (0.0,))
        kinds = [(e.kind, e.participants) for e in events]
        assert ("pulse", (0, 1, 2)) in kinds
        assert kinds.count(("fire", (0,))) == 1


class TestRotatingWaveOrbit:
    """Hand-derived event sequence for sigma = (tau/2, tau/4, 3 tau/4)."""

    def test_one_period_event_sequence(self):
        eng = init_engine(P, rotating_wave_state(P.tau))
        state, elapsed, events = eng.run_until_section(trace=True)
        assert [(e.kind, e.participants) for e in events] == [
            ("pulse", (0, 1)),
            ("fire", (0,)),
            ("pulse", (1, 2)),
            ("fire", (1,)),
            ("pulse", (0, 2)),
            ("fire", (2,)),
        ]
        times = [e.time for e in events]
        assert times[0] == times[1] == pytest.approx(0.145, abs=1e-12)
        assert times[2] == times[3] == pytest.approx(0.29, abs=1e-12)
        assert times[4] == times[5] == pytest.approx(0.435, abs=1e-12)
        assert elapsed == pytest.approx(3 * P.tau / 4, abs=1e-12)

    def test_return_state_is_fixed_point(self):
        start = rotating_wave_state(P.tau)
        eng = init_engine(P, start)
        state, _, _ = eng.run_until_section()
        assert state.phases == pytest.approx(start.phases, abs=1e-12)
        for row_out, row_in in zip(state.ftds, start.ftds):
            assert row_out == pytest.approx(row_in, abs=1e-12)

    def test_ten_periods_stay_on_orbit(self):
        start = rotating_wave_state(P.tau)
        eng = init_engine(P, start)
        for _ in range(10):
            state, elapsed, _ = eng.run_until_section()
            assert elapsed == pytest.approx(3 * P.tau / 4, abs=1e-10)
        assert state.phases == pytest.approx(start.phases, abs=1e-10)

    def test_ftd_memory_stays_bounded(self):
        eng = init_engine(P, rotating_wave_state(P.tau))
        for _ in range(200):
            eng.step()
            assert all(len(row) <= 3 for row in eng.state().ftds)


class TestRunControls:
    def test_horizon_error(self, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_SECTION_TIME", 0.5)
        eng = init_engine(P, network_state((0.0, 0.0, 0.0), ((), (), ())))
        with pytest.raises(HorizonExceededError):
            eng.run_until_section()

    def test_horizon_error_reports_clock_and_state(self, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_SECTION_TIME", 1e-6)
        eng = init_engine(P, network_state((0.5, 0.2, 0.0), ((), (), ())))
        eng.step()
        eng.step()
        with pytest.raises(
            HorizonExceededError,
            match=r"oscillator 3 did not fire within 1e-06 time units"
            r" \(clock=0\.8, theta=\[.*\], pulses in flight=2\)",
        ):
            eng.run_until_section()

    def test_cascade_stall_reports_clock_and_state(self):
        params = ModelParams(b=3.0, eps=1.6, n=3, tau=0.0)
        eng = init_engine(params, network_state((0.5, 0.2, 0.0), ((), (), ())))
        with pytest.raises(
            EngineStallError,
            match=r"cascade exceeded 64 rounds at t=0\.5 \(clock=0\.5, theta=\[0\.0, 0\.0, 0\.0\]",
        ):
            eng.run_until_section()

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
    def test_simulate_rejects_a_non_finite_horizon(self, horizon):
        eng = init_engine(P, rotating_wave_state(P.tau))
        with pytest.raises(DomainError, match=f"horizon must be finite, got {horizon}"):
            eng.simulate(horizon)
        assert eng.clock == 0.0 and eng.events_processed == 0

    def test_simulate_horizon_inclusive(self):
        eng = init_engine(P, rotating_wave_state(P.tau))
        events = eng.simulate(0.29)
        assert events[-1].time == pytest.approx(0.29, abs=1e-12)
        assert len(events) == 4
        assert init_engine(P, rotating_wave_state(P.tau)).simulate(0.1) == []


class TestTraceFormats:
    def test_text_format(self):
        eng = init_engine(P, rotating_wave_state(P.tau))
        events = eng.simulate(0.2)
        text = format_trace_text(events)
        lines = text.strip().splitlines()
        assert lines[0].startswith("P (1,2) t=0.145") and lines[0].endswith("m=1")
        assert lines[1].startswith("F 1 t=0.145")

    def test_jsonl_format_round_trips(self):
        eng = init_engine(P, rotating_wave_state(P.tau))
        events = eng.simulate(0.5)
        records = [json.loads(line) for line in format_trace_jsonl(events).splitlines()]
        assert len(records) == len(events)
        for rec, ev in zip(records, events):
            assert rec["kind"] == ev.kind
            assert math.isclose(rec["time"], ev.time, rel_tol=0, abs_tol=0)
            if ev.kind == "pulse":
                assert rec["recipients"] == [i + 1 for i in ev.participants]
                assert rec["multiplicity"] == ev.multiplicity
            else:
                assert rec["oscillator"] == ev.participants[0] + 1

    def test_empty_trace(self):
        assert format_trace_text([]) == ""
        assert format_trace_jsonl([]) == ""


# Fractions that make coincidences (equal phases, equal FTDs, FTD = tau)
# likely rather than measure-zero.
_unit = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 0.25, 0.5]))
_frac = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 1.0]))


@st.composite
def params_and_state(draw):
    """Admissible 3-oscillator parameters and a valid state for them.

    eps < 1 keeps tau = 0 cascades finite: after its reset an oscillator
    receives at most one pulse from each other firing, less than the whole
    rise, so nothing re-fires within one timestamp."""
    params = ModelParams(
        b=draw(st.floats(0.2, 8.0)),
        eps=draw(st.floats(0.0, 0.95)),
        n=3,
        tau=draw(st.one_of(st.just(0.0), st.floats(0.01, 1.2))),
    )
    phases = [draw(_unit) for _ in range(3)]
    ftds = [
        [draw(_frac) * params.tau for _ in range(draw(st.integers(0, 2)))] for _ in range(3)
    ]
    return params, network_state(phases, ftds)


def _in_flight_ftds(eng: Engine) -> list[tuple[int, float]]:
    """(sender, time since firing) for every pulse in flight, sorted."""
    tau = eng.params.tau
    return sorted((sender, eng.clock + tau - t) for t, sender in eng._heap)


class TestSharedLoopProperties:
    """step(), simulate() and run_until_section with and without a trace
    share one event loop; they differ only in what they hand back."""

    @staticmethod
    def rounds(n: int, events) -> list:
        """A trace's delivery rounds as (time, multiplicity per oscillator):
        each run of pulse events at one time with no fire between them."""
        out: list = []
        after_pulse_at = None
        for ev in events:
            if ev.kind == "pulse":
                if after_pulse_at != ev.time:
                    out.append((ev.time, [0] * n))
                for r in ev.participants:
                    out[-1][1][r] = ev.multiplicity
                after_pulse_at = ev.time
            else:
                after_pulse_at = None
        return out

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(params_and_state())
    def test_trace_free_returns_equal_traced_returns(self, drawn):
        params, start = drawn
        traced, plain = init_engine(params, start), init_engine(params, start)
        for _ in range(4):
            state, elapsed, events = traced.run_until_section(trace=True)
            got = plain.run_until_section()
            assert repr(got[:2]) == repr((state, elapsed))
            assert got[2] == self.rounds(params.n, events)
            assert plain.events_processed == traced.events_processed

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(params_and_state())
    def test_invariants_hold_after_every_step(self, drawn):
        params, start = drawn
        eng = init_engine(params, start)
        clock = eng.clock
        for _ in range(30):
            events = eng.step()
            assert events and all(ev.time == eng.clock for ev in events)
            assert eng.clock >= clock
            clock = eng.clock
            assert all(0.0 <= p < 1.0 for p in eng.theta)
            state = eng.state()
            validate_state(params, state)
            ftds = sorted((i, s) for i, row in enumerate(state.ftds) for s in row)
            in_flight = _in_flight_ftds(eng)
            assert [i for i, _ in ftds] == [i for i, _ in in_flight]
            assert [s for _, s in ftds] == pytest.approx([s for _, s in in_flight], abs=1e-12)


@st.composite
def lockstep_batch(draw):
    """Parameters with n = 3..5, tau = 0, 1e-13, 1e-12 (= COINCIDENCE_TOL)
    or drawn, and 1-6 states in which the last oscillator may or may not
    have just fired."""
    n = draw(st.integers(3, 5))
    tau = draw(st.one_of(st.sampled_from([0.0, 1e-13, 1e-12]), st.floats(0.01, 1.2)))
    params = ModelParams(b=draw(st.floats(0.2, 8.0)), eps=draw(st.floats(0.0, 1.8)), n=n, tau=tau)
    states = [
        network_state(
            [draw(_unit) for _ in range(n)],
            [[draw(_frac) * tau for _ in range(draw(st.integers(0, 2)))] for _ in range(n)],
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    return params, states


class TestRowEncoding:
    """LockstepEngine's rows, LockstepReturns and batched detection's
    history share one encoding of states as array rows."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(lockstep_batch())
    def test_decode_inverts_encode(self, drawn):
        params, states = drawn
        phases, ftds, senders = _encode(params.n, states)
        assert phases.shape == (len(states), params.n)
        assert list(map(repr, _decode(phases, ftds, senders))) == list(map(repr, states))

    def test_empty_rows_and_padding(self):
        states = [
            network_state((0.5, 0.25, 0.0), ((), (), ())),
            network_state((0.0, 0.5, 0.25), ((0.1, 0.3), (), (0.0,))),
        ]
        phases, ftds, senders = _encode(3, states)
        assert senders.tolist() == [[3, 3, 3], [0, 0, 2]]
        assert ftds.tolist() == [[0.0, 0.0, 0.0], [0.1, 0.3, 0.0]]
        assert _decode(phases, ftds, senders) == states
        assert _decode(phases[:0], ftds[:0], senders[:0]) == []


_TAU = st.one_of(st.sampled_from([0.0, 1e-12]), st.floats(0.01, 1.5))


@st.composite
def row_pairs(draw):
    """n, and pairs of states of n oscillators (or all of the second ones
    of n + 1): equal, a rounding step apart with the same FTD row lengths,
    or drawn apart, with empty FTD rows and rows of unequal length."""
    n, tau = draw(st.integers(2, 4)), draw(_TAU)

    def state(n: int) -> NetworkState:
        rows = [[draw(_frac) * tau for _ in range(draw(st.integers(0, 2)))] for _ in range(n)]
        return network_state([draw(_unit) for _ in range(n)], rows)

    firsts = [state(n) for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        return n, firsts, [state(n + 1) for _ in firsts]
    nudge = st.sampled_from([0.0, 1e-12, -1e-9])
    seconds = []
    for a in firsts:
        how = draw(st.sampled_from(["same", "near", "apart"]))
        if how == "apart":
            seconds.append(state(n))
        else:
            shift = draw(nudge) if how == "near" else 0.0
            phases = [p + shift for p in a.phases]
            seconds.append(network_state(phases, [[s + shift for s in row] for row in a.ftds]))
    return n, firsts, seconds


#: One defect each that require_section_state rejects (none: a section state).
_DEFECTS = [
    None,
    "phase-one",
    "phase-nan",
    "phase-negative",
    "ftd-above-tau",
    "ftd-nan",
    "ftd-negative",
    "ftds-descending",
    "last-phase",
    "no-zero-ftd",
]


@st.composite
def section_candidates(draw):
    """Parameters, and section states of params.n oscillators with at most
    one defect each; with wrong_n, params are for one oscillator more."""
    n, tau = draw(st.integers(2, 4)), draw(_TAU)
    states = []
    for _ in range(draw(st.integers(1, 6))):
        phases = [draw(_unit) for _ in range(n - 1)] + [0.0]
        ftds = [sorted(draw(_frac) * tau for _ in range(draw(st.integers(0, 2)))) for _ in range(n)]
        ftds[-1] = sorted(ftds[-1] + [0.0])
        i = draw(st.integers(0, n - 1))
        defect = draw(st.sampled_from(_DEFECTS))
        if defect in ("phase-one", "phase-nan", "phase-negative"):
            phases[i] = {"phase-one": 1.0, "phase-nan": math.nan, "phase-negative": -1e-300}[defect]
        elif defect in ("ftd-above-tau", "ftd-nan", "ftd-negative"):
            bad = {"ftd-above-tau": tau + 1e-12, "ftd-nan": math.nan, "ftd-negative": -0.25}
            ftds[i].append(bad[defect])
        elif defect == "ftds-descending":
            ftds[i] = [tau, tau / 2, *ftds[i]]
        elif defect == "last-phase":
            phases[-1] = draw(st.floats(1e-300, 0.75))
        elif defect == "no-zero-ftd":
            ftds[-1] = [s for s in ftds[-1] if s != 0.0]
        states.append(NetworkState(tuple(phases), tuple(map(tuple, ftds))))
    wrong_n = draw(st.booleans()) and draw(st.booleans())
    return ModelParams(b=3.0, eps=0.58, n=n + wrong_n, tau=tau), n, states


def rejected(params: ModelParams, state: NetworkState) -> bool:
    try:
        require_section_state(params, state)
    except ValueError:
        return True
    return False


#: Starts for n = 3 oscillators at tau = 0.58, each with the defect it is named by.
_NAMED_STARTS = {
    "section-state": NetworkState((0.1, 0.2, 0.0), ((0.3,), (), (0.0,))),
    "phase-one": NetworkState((1.0, 0.2, 0.0), ((), (), (0.0,))),
    "phase-nan": NetworkState((math.nan, 0.2, 0.0), ((), (), (0.0,))),
    "ftd-above-tau": NetworkState((0.1, 0.2, 0.0), ((0.7,), (), (0.0,))),
    "ftds-descending": NetworkState((0.1, 0.2, 0.0), ((0.3, 0.1), (), (0.0,))),
    "last-phase": NetworkState((0.1, 0.2, 0.3), ((), (), (0.0,))),
    "no-zero-ftd": NetworkState((0.1, 0.2, 0.0), ((), (), (0.1,))),
    "zero-ftd-of-another": NetworkState((0.1, 0.2, 0.0), ((), (0.0,), ())),
    "wrong-n": NetworkState((0.1, 0.0), ((), (0.0,))),
}


class TestRowRules:
    """lockstep's row rules are state_distance and require_section_state,
    row by row."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(row_pairs())
    def test_row_distance_is_state_distance(self, drawn):
        n, firsts, seconds = drawn
        rows_a, rows_b = _encode(n, firsts), _encode(seconds[0].n, seconds)
        got = _row_distance(n, rows_a, rows_b).tolist()
        assert list(map(repr, got)) == [repr(state_distance(a, b)) for a, b in zip(firsts, seconds)]
        # Symmetric, with the other side's fill.
        assert _row_distance(seconds[0].n, rows_b, rows_a).tolist() == got

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(section_candidates())
    def test_bad_rows_are_the_rejected_states(self, drawn):
        params, n, states = drawn
        got = _bad_rows(params, *_encode(n, states)).tolist()
        assert got == [rejected(params, state) for state in states]

    @pytest.mark.parametrize("name", list(_NAMED_STARTS))
    def test_bad_rows_named_cases(self, name):
        state = _NAMED_STARTS[name]
        got = _bad_rows(P, *_encode(state.n, [state, state])).tolist()
        assert got == [rejected(P, state)] * 2 == [name != "section-state"] * 2


class TestDeliveries:
    def test_zero_delay_cascade_gives_two_deliveries_at_one_time(self):
        # Oscillator 2 reaches threshold by flow; its pulse takes oscillators
        # 1 and 3 over threshold in the same timestamp, and their pulses are
        # a second delivery round at that time.  The lockstep engine replays
        # the cascade on a scalar engine and hands back the same deliveries.
        params = ModelParams(b=3.0, eps=0.58, n=3, tau=0.0)
        start = network_state((0.0, 0.05, 0.0), ((), (), (0.0,)))
        _, elapsed, deliveries = init_engine(params, start).run_until_section()
        rounds = [[1, 1, 0], [1, 0, 1], [1, 2, 1]]
        assert deliveries == list(zip([0.0, elapsed, elapsed], rounds))
        got = LockstepEngine(params, *_encode(params.n, [start])).run_until_section()
        assert got.when.tolist() == [[0.0, elapsed, elapsed]]
        assert got.mult[0].T.tolist() == rounds


class TestLockstepEngine:
    """A LockstepEngine's section return is run_until_section() of each
    row's own engine, deliveries included, and it restarts each row from
    the state it exported."""

    @staticmethod
    def assert_rows_match(params, starts, got):
        """Each row of got against a scalar engine from its start; returns
        the rows that did not raise and the scalar engines' event count."""
        ok, events = [], 0
        decoded = _decode(got.phases, got.ftds, got.senders)
        for r, start in enumerate(starts):
            eng = init_engine(params, start)
            try:
                state, elapsed, deliveries = eng.run_until_section()
            except RuntimeError as exc:
                assert type(got.errors[r]) is type(exc)
                assert str(got.errors[r]) == str(exc)
                continue
            finally:
                events += eng.events_processed
            assert r not in got.errors
            assert repr(decoded[r]) == repr(state)
            assert repr(got.elapsed[r].item()) == repr(elapsed)
            # Padded with empty deliveries to the widest row.
            pad = [(0.0, [0] * params.n)] * (got.when.shape[1] - len(deliveries))
            assert list(zip(got.when[r].tolist(), got.mult[r].T.tolist())) == deliveries + pad
            ok.append(r)
        return ok, events

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(lockstep_batch())
    def test_rows_equal_scalar_returns(self, drawn):
        params, states = drawn
        lockstep = LockstepEngine(params, *_encode(params.n, states))
        got = lockstep.run_until_section()
        ok, events = self.assert_rows_match(params, states, got)
        assert lockstep.events_processed == events
        assert type(lockstep.events_processed) is int
        # The second return starts from the exported states, as a new
        # engine would; rows that raised are dropped first.
        keep = np.zeros(len(states), dtype=bool)
        keep[ok] = True
        lockstep.keep(keep)
        again = lockstep.run_until_section()
        decoded = _decode(got.phases, got.ftds, got.senders)
        starts = [decoded[r] for r in ok]
        _, more = self.assert_rows_match(params, starts, again)
        assert lockstep.events_processed == events + more

    def test_runs_returns_without_a_trace_only(self):
        lockstep = LockstepEngine(P, *_encode(P.n, [rotating_wave_state(P.tau)]))
        with pytest.raises(ValueError, match="without a trace"):
            lockstep.run_until_section(trace=True)

    def test_returns_go_through_engine_run_until_section(self, monkeypatch):
        # run_until_section is the one entry point of a section return,
        # batched or not, so what wraps it sees lockstep returns too.
        calls = []
        original = Engine.run_until_section

        def counted(engine, *args, **kwargs):
            calls.append(type(engine))
            return original(engine, *args, **kwargs)

        monkeypatch.setattr(Engine, "run_until_section", counted)
        LockstepEngine(P, *_encode(P.n, [rotating_wave_state(P.tau)] * 2)).run_until_section()
        assert calls == [LockstepEngine]

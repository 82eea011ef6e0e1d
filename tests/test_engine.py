"""Unit tests for the event engine: scheduling exactness, reception
semantics (pulses before fires, multiplicity aggregation, clamping),
canonical state export, and the hand-derived event sequence of the
rotating-wave orbit used throughout the analytic layer."""

from __future__ import annotations

import json
import math

import pytest

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
from isochron.model import ModelParams, jump, jump_m

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
        assert is_section_state(network_state((0.0, 0.2, 0.1), ((0.0,), (), (0.3,))), k=0)


class TestScheduling:
    def test_pulse_delivered_exactly_delay_after_fire(self):
        p = ModelParams(b=3.0, eps=0.1, n=3, tau=0.37)
        eng = init_engine(p, network_state((0.9, 0.1, 0.0), ((), (), ())))
        events = eng.step()
        assert [e.kind for e in events] == ["fire"]
        t_fire = events[0].time
        assert t_fire == pytest.approx(0.1, abs=1e-15)
        (pulse,) = eng.pending_pulses()
        assert pulse.deliver_at == t_fire + p.tau  # bit-exact
        assert pulse.sender == 0

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
        state, elapsed, events = eng.run_until_section()
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
        state, elapsed, events = eng.run_until_section()
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
    def test_horizon_error(self):
        eng = init_engine(P, network_state((0.0, 0.0, 0.0), ((), (), ())))
        with pytest.raises(HorizonExceededError):
            eng.run_until_section(max_time=0.5)

    def test_horizon_error_reports_clock_and_state(self):
        eng = init_engine(P, network_state((0.5, 0.2, 0.0), ((), (), ())))
        eng.step()
        eng.step()
        with pytest.raises(
            HorizonExceededError,
            match=r"within 1e-06 time units \(clock=0\.8, theta=\[.*\], pulses in flight=2\)",
        ):
            eng.run_until_section(k=0, max_time=1e-6)

    def test_cascade_stall_reports_clock_and_state(self):
        params = ModelParams(b=3.0, eps=1.6, n=3, tau=0.0)
        eng = init_engine(params, network_state((0.5, 0.2, 0.0), ((), (), ())))
        with pytest.raises(
            EngineStallError,
            match=r"cascade exceeded 64 rounds at t=0\.5 \(clock=0\.5, theta=\[0\.0, 0\.0, 0\.0\]",
        ):
            eng.run_until_section()

    def test_section_choice(self):
        eng = init_engine(P, network_state((0.9, 0.1, 0.0), ((), (), ())))
        state, elapsed, _ = eng.run_until_section(k=0)
        assert state.phases[0] == 0.0
        assert elapsed == pytest.approx(0.1, abs=1e-15)

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

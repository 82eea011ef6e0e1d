"""Unit tests for the event engine: scheduling exactness, reception
semantics (pulses before fires, multiplicity aggregation, clamping),
canonical state export, and the hand-derived event sequence of the
rotating-wave orbit used throughout the analytic layer."""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from isochron.lockstep import LockstepEngine
from isochron.model import DomainError, ModelParams, jump, jump_m

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
    return sorted(
        (p.sender, eng.clock + tau - p.deliver_at)
        for p in eng.pending_pulses()
        for _ in range(p.multiplicity)
    )


class TestSharedLoopProperties:
    """step(), simulate() and every run_until_section record mode share one
    event loop; the modes differ only in what they hand back."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(params_and_state())
    def test_trace_free_returns_equal_traced_returns(self, drawn):
        params, start = drawn
        engines = {mode: init_engine(params, start) for mode in ("events", "receptions", None)}
        for _ in range(4):
            runs = {
                mode: eng.run_until_section(record=mode) for mode, eng in engines.items()
            }
            traced_state, traced_elapsed, events = runs["events"]
            for mode in ("receptions", None):
                state, elapsed, _ = runs[mode]
                assert repr(state) == repr(traced_state)
                assert repr(elapsed) == repr(traced_elapsed)
            assert runs[None][2] == []
            expanded = [
                (r, ev.multiplicity, ev.time)
                for ev in events
                if ev.kind == "pulse"
                for r in ev.participants
            ]
            # The stable sort detect_periodicity applies to a cycle's
            # receptions: rounds keep their order.
            by_time = functools.partial(sorted, key=lambda rec: (rec[2], rec[0]))
            assert by_time(runs["receptions"][2]) == by_time(expanded)
            counts = {eng.events_processed for eng in engines.values()}
            assert counts == {engines["events"].events_processed}

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


def exported_state(got, r, n):
    """Row r of a LockstepReturns as a NetworkState."""
    rows = [[] for _ in range(n)]
    for i, x in zip(got.senders[r].tolist(), got.ftds[r].tolist()):
        if i < n:
            rows[i].append(x)
    return NetworkState(tuple(got.phases[r].tolist()), tuple(map(tuple, rows)))


class TestLockstepEngine:
    """A LockstepEngine's section return is run_until_section(record=
    "receptions") of each row's own engine, and it restarts each row from
    the state it exported."""

    @staticmethod
    def assert_rows_match(params, starts, got):
        """Each row of got against a scalar engine from its start; returns
        the rows that did not raise and the scalar engines' event count."""
        ok, events = [], 0
        for r, start in enumerate(starts):
            eng = init_engine(params, start)
            try:
                state, elapsed, receptions = eng.run_until_section(record="receptions")
            except RuntimeError as exc:
                assert type(got.errors[r]) is type(exc)
                assert str(got.errors[r]) == str(exc)
                continue
            finally:
                events += eng.events_processed
            assert r not in got.errors
            assert repr(exported_state(got, r, params.n)) == repr(state)
            assert repr(got.elapsed[r].item()) == repr(elapsed)
            lo, hi = got.bounds[r], got.bounds[r + 1]
            assert list(
                zip(
                    got.recipients[lo:hi].tolist(),
                    got.multiplicities[lo:hi].tolist(),
                    got.times[lo:hi].tolist(),
                )
            ) == receptions
            ok.append(r)
        return ok, events

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(lockstep_batch())
    def test_rows_equal_scalar_returns(self, drawn):
        params, states = drawn
        lockstep = LockstepEngine(params, states)
        got = lockstep.run_until_section(record="receptions")
        ok, events = self.assert_rows_match(params, states, got)
        assert lockstep.events_processed == events
        assert type(lockstep.events_processed) is int
        # The second return starts from the exported states, as a new
        # engine would; rows that raised are dropped first.
        keep = np.zeros(len(states), dtype=bool)
        keep[ok] = True
        lockstep.keep(keep)
        again = lockstep.run_until_section(record="receptions")
        starts = [exported_state(got, r, params.n) for r in ok]
        _, more = self.assert_rows_match(params, starts, again)
        assert lockstep.events_processed == events + more

    def test_only_returns_of_the_last_oscillator_with_receptions(self):
        lockstep = LockstepEngine(P, [rotating_wave_state(P.tau)])
        with pytest.raises(ValueError, match="last oscillator"):
            lockstep.run_until_section(k=0, record="receptions")
        with pytest.raises(ValueError, match="receptions"):
            lockstep.run_until_section()

    def test_returns_go_through_engine_run_until_section(self, monkeypatch):
        # run_until_section is the one entry point of a section return,
        # batched or not, so what wraps it sees lockstep returns too.
        calls = []
        original = Engine.run_until_section

        def counted(engine, *args, **kwargs):
            calls.append(type(engine))
            return original(engine, *args, **kwargs)

        monkeypatch.setattr(Engine, "run_until_section", counted)
        LockstepEngine(P, [rotating_wave_state(P.tau)] * 2).run_until_section(
            record="receptions"
        )
        assert calls == [LockstepEngine]

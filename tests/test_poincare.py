"""Tests for the section map, cycle detection, and pulse signatures."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracle import PaddedHistory, cycle_result, o_distance, o_section_return, scalar_detect

from isochron import (
    DEFAULT_MATCH_TOL,
    KINDS,
    ModelParams,
    NotPeriodic,
    PeriodicityResult,
    SectionError,
    cycle_state,
    detect_periodicity,
    detect_periodicity_many,
    eq_init_state,
    g_map,
    init_engine,
    jump,
    network_state,
    phase_projection,
    poincare_map,
    pulse_equivalent,
    pulse_signature,
    region_center,
    require_section_state,
    s_embed,
    sample_interior,
    state_distance,
    states_match,
)
from isochron import engine, lockstep, poincare
from isochron.engine import EngineStallError, HorizonExceededError, NetworkState, StateError
from isochron.poincare import _cycle_results, _cycle_table

P = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)

#: jump(P, 0.29, 0.29) — first oscillator's phase in the canonical
#: period-4 state at the region center (tau/2, tau/4, 3*tau/4).
JUMP_029 = 0.7648723076637269

#: Return times of the minimal period-3 cycle reached from the period-3
#: family's center (tau/3, 2*tau/3) at the reference parameters, starting
#: from the first revisited state.  They sum to 2*tau.
IR3_CENTER_RETURNS = (
    0.39105964316225983,
    0.3822736901710735,
    0.3866666666666665,
)


def rotating_wave_state(tau: float):
    """Canonical section state at the period-4 family's center."""
    return network_state(
        phases=(jump(P, tau / 2, P.eps_hat), tau / 4, 0.0),
        ftds=((tau / 2,), (tau / 4,), (0.0, 3 * tau / 4)),
    )


def sync_state():
    """All three oscillators at phase 0 having just fired together."""
    return network_state(phases=(0.0, 0.0, 0.0), ftds=((0.0,), (0.0,), (0.0,)))


def ir4_line_state(tau: float, s2: float):
    """Canonical state of the period-4 family point (tau/2, s2, tau/2+s2)."""
    return network_state(
        phases=(jump(P, tau / 2, P.eps_hat), s2, 0.0),
        ftds=((tau / 2,), (s2,), (0.0, tau / 2 + s2)),
    )


def ir3_state(tau: float, s1: float, s3: float):
    """Canonical state of the period-3 family point (s1, s3): the first
    two oscillators share phase and firing memory."""
    return network_state(
        phases=(s1, s1, 0.0),
        ftds=((s1,), (s1,), (0.0, s3)),
    )


class TestSectionMap:
    def test_rotating_wave_is_fixed_point(self):
        state = rotating_wave_state(P.tau)
        new, elapsed = poincare_map(P, state)
        assert elapsed == pytest.approx(3 * P.tau / 4, abs=1e-12)
        assert states_match(state, new, tol=1e-12)

    def test_sync_state_is_fixed_point(self):
        state = sync_state()
        new, elapsed = poincare_map(P, state)
        assert elapsed == pytest.approx(P.tau, abs=1e-12)
        assert states_match(state, new, tol=1e-12)

    def test_section_state_required(self):
        off_section = network_state(
            phases=(0.5, 0.2, 0.1), ftds=((0.1,), (0.2,), (0.3,))
        )
        with pytest.raises(SectionError):
            poincare_map(P, off_section)

    def test_zero_ftd_alone_is_not_enough(self):
        # Phase 0 without a zero firing-time distance: not a section state.
        state = network_state(
            phases=(0.5, 0.2, 0.0), ftds=((0.1,), (0.2,), (0.3,))
        )
        with pytest.raises(SectionError):
            require_section_state(P, state)


class TestPhaseProjection:
    def test_drops_reference_phase_and_ftds(self):
        state = rotating_wave_state(P.tau)
        assert phase_projection(state) == pytest.approx(
            (JUMP_029, 0.145), abs=1e-15
        )
        assert len(phase_projection(state)) == state.n - 1

    def test_sync_projects_to_origin(self):
        assert phase_projection(sync_state()) == (0.0, 0.0)


class TestStatesMatch:
    def test_matches_within_tolerance(self):
        a = rotating_wave_state(P.tau)
        b = network_state(
            phases=(a.phases[0] + 1e-12, a.phases[1], 0.0),
            ftds=a.ftds,
        )
        assert states_match(a, b, tol=1e-9)
        assert not states_match(a, b, tol=1e-13)

    def test_ftd_cardinality_gates_matching(self):
        a = network_state(phases=(0.5, 0.2, 0.0), ftds=((0.1,), (0.2,), (0.0,)))
        b = network_state(
            phases=(0.5, 0.2, 0.0), ftds=((0.1,), (0.2,), (0.0, 0.3))
        )
        assert not states_match(a, b, tol=1.0)

    def test_empty_ftd_rows_compare_by_phases(self):
        a = network_state(phases=(0.5, 0.2, 0.0), ftds=((), (), (0.0,)))
        b = network_state(phases=(0.5, 0.2 + 1e-12, 0.0), ftds=((), (), (0.0,)))
        assert state_distance(a, b) == abs(a.phases[1] - b.phases[1])
        assert states_match(a, b, tol=1e-9)
        assert not states_match(a, b, tol=1e-13)

    def test_rows_of_unequal_length_never_match(self):
        # Same number of FTD entries in total, spread over different rows.
        a = network_state(phases=(0.5, 0.2, 0.0), ftds=((0.1,), (), (0.0,)))
        b = network_state(phases=(0.5, 0.2, 0.0), ftds=((), (0.1,), (0.0,)))
        assert state_distance(a, b) == math.inf
        assert not states_match(a, b, tol=1.0)


_unit = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 0.25, 0.5]))
_frac = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 1.0]))


@st.composite
def params_and_section_state(draw):
    """Admissible 3-oscillator parameters and a section state for them:
    oscillator 3 has phase 0 and an FTD of 0.  eps < 1 keeps tau = 0
    cascades finite."""
    params = ModelParams(
        b=draw(st.floats(0.2, 8.0)),
        eps=draw(st.floats(0.0, 0.95)),
        n=3,
        tau=draw(st.one_of(st.just(0.0), st.floats(0.01, 1.2))),
    )
    ftds = [
        [draw(_frac) * params.tau for _ in range(draw(st.integers(0, n_max)))]
        for n_max in (2, 2, 1)
    ]
    ftds[2].append(0.0)
    return params, network_state([draw(_unit), draw(_unit), 0.0], ftds)


#: Largest distance allowed between one section return and the 50-digit
#: reference, in state components and return time.  Over 42,000 uniform
#: random draws from params_and_section_state's ranges the state error had
#: median 6.5e-17, 99th percentile at most 5.9e-16 and maximum 1.4e-14.
ONE_RETURN_BOUND = 3e-14


class TestFiftyDigitArbiter:
    """The section map against tests/oracle.py's 50-digit event loop."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(params_and_section_state())
    def test_one_return_agrees_with_the_reference(self, drawn):
        params, start = drawn
        state, elapsed = poincare_map(params, start)
        phases, ftds, ref_elapsed = o_section_return(
            params.b, params.eps, params.tau, start.phases, start.ftds
        )
        assert o_distance(state, phases, ftds) <= ONE_RETURN_BOUND
        assert abs(elapsed - ref_elapsed) <= ONE_RETURN_BOUND


#: Parameter sets whose period-4 family is nonempty and not too thin to
#: sample: the reference point and two others.
IR4_PARAMS = (
    P,
    ModelParams(b=5.0, eps=0.45, n=3, tau=0.45),
    ModelParams(b=3.0, eps=0.95, n=3, tau=0.3),
)


class TestAnalyticAgainstSimulatedMap:
    """The closed-form return map g against the simulated section map, both
    against the 50-digit reference.  Over 2,000 random interior points of
    IR4 at random parameters the analytic state s_embed(g(sigma)) was at
    most 2.5e-16 from the reference (median 4.2e-17) and the simulated one
    at most 3.3e-16 (median 7.2e-17); both are pinned at the per-return
    bound."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(IR4_PARAMS), st.integers(0, 2**32 - 1))
    def test_both_maps_agree_with_the_reference(self, params, seed):
        sigma = tuple(float(v) for v in sample_interior(params, "IR4", 1, seed=seed)[0])
        start = s_embed(params, "IR4", sigma)
        phases, ftds, _ = o_section_return(
            params.b, params.eps, params.tau, start.phases, start.ftds
        )
        analytic = s_embed(params, "IR4", g_map(sigma, params.tau))
        simulated, _ = poincare_map(params, start)
        assert o_distance(analytic, phases, ftds) <= ONE_RETURN_BOUND
        assert o_distance(simulated, phases, ftds) <= ONE_RETURN_BOUND


class TestDetectPeriodicity:
    def test_rotating_wave_period_one(self):
        res = detect_periodicity(P, rotating_wave_state(P.tau), max_iter=16)
        assert isinstance(res, PeriodicityResult)
        assert res.transient_iters == 0
        assert res.poincare_period == 1
        assert res.detected_period == 1
        assert res.orbit_period == pytest.approx(3 * P.tau / 4, abs=1e-12)
        assert len(res.return_times) == 1

    @pytest.mark.parametrize("s2", [0.10, 0.20])
    def test_line_states_have_period_two(self, s2):
        res = detect_periodicity(P, ir4_line_state(P.tau, s2), max_iter=16)
        assert isinstance(res, PeriodicityResult)
        assert res.transient_iters == 0
        assert res.poincare_period == 2
        assert res.orbit_period == pytest.approx(3 * P.tau / 2, abs=1e-12)

    def test_generic_period_four(self):
        state = network_state(
            phases=(jump(P, 0.30, P.eps_hat), 0.10, 0.0),
            ftds=((0.30,), (0.10,), (0.0, 0.40)),
        )
        res = detect_periodicity(P, state, max_iter=16)
        assert isinstance(res, PeriodicityResult)
        assert res.transient_iters == 0
        assert res.poincare_period == 4
        assert res.orbit_period == pytest.approx(3 * P.tau, abs=1e-12)
        assert math.fsum(res.return_times) == pytest.approx(
            res.orbit_period, abs=1e-12
        )

    def test_locked_pair_center_cycles_after_one_return(self):
        s1, s3 = P.tau / 3, 2 * P.tau / 3
        res = detect_periodicity(P, ir3_state(P.tau, s1, s3), max_iter=16)
        assert isinstance(res, PeriodicityResult)
        assert res.transient_iters == 1
        assert res.poincare_period == 3
        assert res.orbit_period == pytest.approx(2 * P.tau, abs=1e-12)
        assert res.return_times == pytest.approx(IR3_CENTER_RETURNS, abs=1e-12)

    def test_locked_pair_center_collapses_at_longer_delay(self):
        # At tau = 0.60 two thirds of the delay clears the single-pulse
        # trigger threshold, so the locked-pair center orbit closes after
        # every section return instead of every third.
        p6 = ModelParams(b=3.0, eps=0.58, n=3, tau=0.60)
        s1, s3 = p6.tau / 3, 2 * p6.tau / 3
        res = detect_periodicity(p6, ir3_state(p6.tau, s1, s3), max_iter=16)
        assert isinstance(res, PeriodicityResult)
        assert res.poincare_period == 1
        assert res.orbit_period == pytest.approx(2 * p6.tau / 3, abs=1e-12)

    def test_sync_fixed_point(self):
        res = detect_periodicity(P, sync_state(), max_iter=8)
        assert res.poincare_period == 1
        assert res.orbit_period == pytest.approx(P.tau, abs=1e-12)

    def test_budget_exhaustion_reports_not_periodic(self):
        state = network_state(
            phases=(jump(P, 0.30, P.eps_hat), 0.10, 0.0),
            ftds=((0.30,), (0.10,), (0.0, 0.40)),
        )
        res = detect_periodicity(P, state, max_iter=3)
        assert isinstance(res, NotPeriodic)
        assert res.iterations == 3
        assert res.last_state.n == 3

    def test_rejects_bad_budget_and_tolerance(self):
        with pytest.raises(ValueError):
            detect_periodicity(P, sync_state(), max_iter=0)
        with pytest.raises(ValueError):
            detect_periodicity(P, sync_state(), tol=0.0)

    def test_json_round_trip_keys(self):
        res = detect_periodicity(P, rotating_wave_state(P.tau), max_iter=8)
        d = res.to_json_dict()
        assert d["periodic"] is True
        assert d["poincare_period"] == 1
        assert d["return_times"] == list(res.return_times)
        assert d["periodic_state"]["phases"] == list(res.periodic_state.phases)

        miss = detect_periodicity(
            P,
            network_state(
                phases=(jump(P, 0.30, P.eps_hat), 0.10, 0.0),
                ftds=((0.30,), (0.10,), (0.0, 0.40)),
            ),
            max_iter=2,
        )
        d = miss.to_json_dict()
        assert d["periodic"] is False
        assert d["iterations"] == 2


    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([0.3, 0.45, 0.58, 0.7]),
    )
    def test_cycle_is_the_section_map_chain(self, theta1, theta2, tau):
        params = ModelParams(b=3.0, eps=0.58, n=3, tau=tau)
        start = eq_init_state(params, theta1, theta2)
        res = detect_periodicity(params, start, max_iter=200)
        assert isinstance(res, PeriodicityResult)
        j, p = res.transient_iters, res.poincare_period
        chain, times = [start], []
        for _ in range(j + p):
            state, elapsed = poincare_map(params, chain[-1])
            chain.append(state)
            times.append(elapsed)
        assert repr(res.cycle_states) == repr(tuple(chain[j : j + p]))
        assert res.return_times == tuple(times[j : j + p])


def cycle_rows(n: int, cycles: list[tuple]) -> tuple:
    """Cycles as cycle_result takes them, as one chunk of _cycle_table.  Each
    cycle is (transient, states, returns, received): its states, the time
    of the return that leaves each and that return's receptions.  Each
    reception becomes a delivery of its own, in the order received."""
    states = [s for cycle in cycles for s in cycle[1]]
    received = [got for cycle in cycles for got in cycle[3]]
    flat = [reception for got in received for reception in got]
    mult = np.zeros((len(flat), n), dtype=int)
    for d, (r, m, _) in enumerate(flat):
        mult[d, r] = m
    return (
        np.array([cycle[0] for cycle in cycles], dtype=int),
        np.array([len(cycle[1]) for cycle in cycles], dtype=int),
        *lockstep._encode(n, states),
        np.array([r for cycle in cycles for r in cycle[2]], dtype=float),
        np.array([len(got) for got in received], dtype=int),
        np.array([t for _, _, t in flat], dtype=float),
        mult,
    )


def assemble_all(n: int, chunks: list[tuple]) -> list:
    """Every cycle of the chunks as a PeriodicityResult, through both
    stages of cycle assembly: the cycle table, then its objects."""
    table = _cycle_table(n, chunks)
    return _cycle_results(table, range(len(table.periods)))


_A = network_state(phases=(0.1, 0.2, 0.0), ftds=((0.1,), (0.2,), (0.0,)))
_B = network_state(phases=(0.3, 0.4, 0.0), ftds=((0.3,), (), (0.0, 0.4)))
#: Within 1e-9 of _A, but not equal to it.
_A_NEAR = network_state(phases=(0.1 + 4e-10, 0.2, 0.0), ftds=((0.1,), (0.2 - 4e-10,), (0.0,)))
#: _A with one more FTD entry: never within any tol of _A.
_A_LONGER = network_state(phases=(0.1, 0.2, 0.0), ftds=((0.1,), (0.2,), (0.0, 0.5)))


@st.composite
def detected_cycles(draw):
    """A cycle: a pattern of states (one perhaps replaced by a near or a
    differently shaped copy), return times, and receptions at arbitrary
    times, at 0, at the end of their return and at the wrap threshold just
    before it."""
    states = draw(st.lists(st.sampled_from([_A, _B, _A_NEAR]), min_size=1, max_size=6))
    if draw(st.booleans()):
        states[draw(st.integers(0, len(states) - 1))] = draw(st.sampled_from([_A_NEAR, _A_LONGER]))
    returns = [draw(st.sampled_from([0.25, 0.5, 0.375])) for _ in states]
    received = [
        [
            (
                draw(st.integers(0, 2)),
                draw(st.integers(1, 2)),
                draw(
                    st.one_of(
                        st.sampled_from([0.0, ret, ret - DEFAULT_MATCH_TOL]), st.floats(0.0, ret)
                    )
                ),
            )
            for _ in range(draw(st.integers(0, 4)))
        ]
        for ret in returns
    ]
    return draw(st.integers(0, 5)), states, returns, received


class TestMinimalCycle:
    """Cycle assembly, the detector's cycle builder, against cycle_result."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(detected_cycles(), min_size=1, max_size=5), st.sampled_from([1e-9, 1e-10]))
    def test_many_cycles_at_once_equal_the_return_by_return_build(self, drawn, tol):
        # Detection finds only minimal cycles, so only the drawn cycles that
        # the return-by-return build leaves unreduced are assembled.
        built = [cycle_result(*cycle, tol) for cycle in drawn]
        cycles = [c for c, w in zip(drawn, built) if w.poincare_period == w.detected_period]
        want = [w for w in built if w.poincare_period == w.detected_period]
        assume(cycles)
        # Cycles assembled together, in chunks of different widths, are
        # each repr-identical to the build of that cycle alone, return by
        # return.
        chunks = [cycle_rows(3, cycles[:2]), cycle_rows(3, cycles[2:])]
        assert list(map(repr, assemble_all(3, chunks))) == list(map(repr, want))
        # The object stage builds any of the table's cycles, in any order.
        picked = list(range(len(cycles)))[::-2]
        got = _cycle_results(_cycle_table(3, chunks), picked)
        assert list(map(repr, got)) == [repr(want[k]) for k in picked]

    def test_match_is_exact_where_rounded_bounds_miss(self):
        # The third state is within tol of the second, but the second's
        # phase 0 falls outside the rounded bounds p0 - tol, p0 + tol around
        # the third's.  The prefilter makes the distance's own subtraction,
        # so the third state matches the second: a cycle of length 1.
        params = ModelParams(
            b=4.290460230418813, eps=0.8972177923561984, n=3, tau=0.229223571539693
        )
        start = eq_init_state(params, 0.9, 0.1)
        tol = 0.43986737451856583
        chain = [start]
        for _ in range(3):
            chain.append(poincare_map(params, chain[-1])[0])
        old, new = chain[2].phases[0], chain[3].phases[0]
        assert state_distance(chain[2], chain[3]) <= tol
        assert not new - tol <= old <= new + tol
        want = assert_batch_matches(params, [start], max_iter=10, tol=tol)[0]
        assert (want.transient_iters, want.detected_period, want.poincare_period) == (2, 1, 1)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        b=st.floats(0.2, 8.0),
        eps=st.floats(0.0, 0.95),
        tau=st.one_of(st.sampled_from([0.0, 1e-12]), st.floats(0.01, 1.2)),
        tol=st.floats(1e-9, 0.5),
        thetas=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=4),
    )
    @example(
        b=4.290460230418813,
        eps=0.8972177923561984,
        tau=0.229223571539693,
        tol=0.43986737451856583,
        thetas=[(0.9, 0.1)],
    )
    def test_detected_cycles_are_minimal(self, b, eps, tau, tol, thetas):
        # Batched detection is the reference start by start, and
        # cycle_result's divisor reduction leaves every found cycle as it is.
        params = ModelParams(b=b, eps=eps, n=3, tau=tau)
        starts = [eq_init_state(params, t1, t2) for t1, t2 in thetas]
        want = assert_batch_matches(params, starts, max_iter=40, tol=tol)
        for w in want:
            if isinstance(w, PeriodicityResult):
                assert w.detected_period == w.poincare_period


def simulated_receptions(params, result):
    """Reference receptions: one continuous simulation of the orbit period
    from the cycle start, wrapping a reception at the period boundary to
    offset 0."""
    period = result.orbit_period
    receptions = []
    for ev in init_engine(params, result.periodic_state).simulate(period):
        if ev.kind != "pulse":
            continue
        offset = ev.time if ev.time < period - DEFAULT_MATCH_TOL else 0.0
        receptions.extend((r, ev.multiplicity, offset) for r in ev.participants)
    receptions.sort(key=lambda rec: (rec[2], rec[0]))
    return receptions


def per_recipient(receptions):
    """recipient -> time-ordered [(multiplicity, offset), ...]."""
    out = {}
    for recipient, mult, offset in receptions:
        out.setdefault(recipient, []).append((mult, offset))
    return out


@pytest.fixture(scope="module")
def walked_cycles():
    """Every periodic cell of the step-0.1 scan grid plus the cycle from
    each family's center."""
    grid = [i * 0.1 for i in range(10)]
    cases = [
        (f"cell ({t1:.1f}, {t2:.1f})", eq_init_state(P, t1, t2))
        for t1 in grid
        for t2 in grid
    ]
    cases += [
        (f"{kind} center", cycle_state(P, kind, region_center(kind, P.tau)))
        for kind in KINDS
    ]
    results = [(label, detect_periodicity(P, state)) for label, state in cases]
    return [(label, res) for label, res in results if isinstance(res, PeriodicityResult)]


class TestCycleWalk:
    def test_covers_the_grid_and_every_family(self, walked_cycles):
        assert len(walked_cycles) == 100 + len(KINDS)
        assert {res.poincare_period for _, res in walked_cycles} >= {1, 2, 3}

    def test_states_follow_the_section_map_exactly(self, walked_cycles):
        for label, res in walked_cycles:
            states = res.cycle_states
            assert len(states) == res.poincare_period, label
            assert res.periodic_state is states[0]
            for k in range(len(states) - 1):
                assert poincare_map(P, states[k])[0] == states[k + 1], label
            closing, _ = poincare_map(P, states[-1])
            assert states_match(closing, states[0], DEFAULT_MATCH_TOL), label

    def test_receptions_match_a_continuous_simulation(self, walked_cycles):
        for label, res in walked_cycles:
            want = per_recipient(simulated_receptions(P, res))
            got = per_recipient(res.receptions)
            assert got.keys() == want.keys(), label
            for recipient, seq in want.items():
                assert [m for m, _ in got[recipient]] == [m for m, _ in seq], label
                for (_, a), (_, b) in zip(got[recipient], seq):
                    assert a == pytest.approx(b, abs=1e-12), label

    def test_signature_reads_the_result_without_an_engine(self, monkeypatch):
        res = detect_periodicity(P, rotating_wave_state(P.tau), max_iter=8)

        def no_engine(*args, **kwargs):
            raise AssertionError("pulse_signature started an engine")

        monkeypatch.setattr(poincare, "init_engine", no_engine)
        monkeypatch.setattr(poincare, "Engine", no_engine)
        sig = pulse_signature(P, res)
        assert sig.period == res.orbit_period
        assert sig.receptions == res.receptions


class TestPulseSignature:
    def test_rotating_wave_signature(self):
        res = detect_periodicity(P, rotating_wave_state(P.tau), max_iter=8)
        sig = pulse_signature(P, res)
        assert sig.period == pytest.approx(3 * P.tau / 4, abs=1e-12)
        assert len(sig.receptions) == 6
        # Every oscillator receives two single pulses per period.
        assert sig.per_recipient() == {0: (1, 1), 1: (1, 1), 2: (1, 1)}
        # A reception landing on the period boundary is wrapped to offset 0.
        offsets = sorted({round(t, 12) for _, _, t in sig.receptions})
        assert offsets == pytest.approx([0.0, P.tau / 4, P.tau / 2], abs=1e-12)

    def test_sync_signature_is_all_double_pulses(self):
        res = detect_periodicity(P, sync_state(), max_iter=8)
        sig = pulse_signature(P, res)
        assert sig.period == pytest.approx(P.tau, abs=1e-12)
        assert sig.per_recipient() == {0: (2,), 1: (2,), 2: (2,)}

    def test_zero_coupling_still_lists_receptions(self):
        p0 = ModelParams(b=3.0, eps=0.0, n=3, tau=0.58)
        res = detect_periodicity(p0, sync_state(), max_iter=8)
        sig = pulse_signature(p0, res)
        assert len(sig.receptions) == 3
        assert all(m == 2 for _, m, _ in sig.receptions)

    def test_receptions_sorted_by_offset_then_recipient(self):
        res = detect_periodicity(P, rotating_wave_state(P.tau), max_iter=8)
        sig = pulse_signature(P, res)
        keys = [(t, r) for r, _, t in sig.receptions]
        assert keys == sorted(keys)

    def test_json_uses_one_based_recipients(self):
        res = detect_periodicity(P, sync_state(), max_iter=8)
        d = pulse_signature(P, res).to_json_dict()
        assert {rec["recipient"] for rec in d["receptions"]} == {1, 2, 3}


class TestPulseEquivalence:
    def _sig(self, state, params=P):
        res = detect_periodicity(params, state, max_iter=16)
        assert isinstance(res, PeriodicityResult)
        return pulse_signature(params, res)

    def test_reflexive_and_symmetric(self):
        a = self._sig(rotating_wave_state(P.tau))
        b = self._sig(rotating_wave_state(P.tau))
        assert pulse_equivalent(a, a)
        assert pulse_equivalent(a, b) and pulse_equivalent(b, a)

    def test_period_mismatch_breaks_equivalence(self):
        a = self._sig(rotating_wave_state(P.tau))  # period 3*tau/4
        b = self._sig(sync_state())  # period tau
        assert not pulse_equivalent(a, b)

    def test_line_and_center_orbits_differ_by_period(self):
        a = self._sig(rotating_wave_state(P.tau))
        b = self._sig(ir4_line_state(P.tau, 0.10))
        assert not pulse_equivalent(a, b)

    def test_multiplicity_pattern_matters(self):
        # Same period can still fail on reception multiplicities: compare
        # the sync orbit with itself under a recipient relabeling (equal)
        # versus the rotating wave (unequal periods filtered earlier).
        a = self._sig(sync_state())
        assert pulse_equivalent(a, a)


def detect_each(params, states, detect=scalar_detect, **kwargs):
    """detect (by default the reference, scalar_detect) per start: its
    result, or the exception it raised."""
    out = []
    for state in states:
        try:
            out.append(detect(params, state, **kwargs))
        except Exception as exc:  # compared by type and message below
            out.append(exc)
    return out


def assert_batch_matches(params, states, **kwargs):
    """detect_periodicity_many equals scalar_detect start by start (by
    repr), and raises what the first raising start raises; so does
    detect_periodicity, a batch of one, on each start."""
    want = detect_each(params, states, **kwargs)
    raised = [w for w in want if isinstance(w, Exception)]
    if raised:
        with pytest.raises(type(raised[0])) as exc:
            detect_periodicity_many(params, states, **kwargs)
        assert str(exc.value) == str(raised[0])
    else:
        got = detect_periodicity_many(params, states, **kwargs)
        assert [repr(g) for g in got] == [repr(w) for w in want]
    single = detect_each(params, states, detect_periodicity, **kwargs)
    assert [repr(g) for g in single] == [repr(w) for w in want]
    return want


def shorten_horizon(monkeypatch, limit: float) -> None:
    """Cap a section return at limit time units, in both engines."""
    monkeypatch.setattr(engine, "_MAX_SECTION_TIME", limit)
    monkeypatch.setattr(lockstep, "_MAX_SECTION_TIME", limit)


@st.composite
def section_states(draw):
    """Parameters with n = 3..5 oscillators, tau = 0, 1e-13 or 1e-12
    (pulses due within the coincidence tolerance, the last exactly at its
    edge) or drawn, and 1-4 section states."""
    n = draw(st.integers(3, 5))
    tau = draw(st.one_of(st.sampled_from([0.0, 1e-13, 1e-12]), st.floats(0.01, 1.2)))
    params = ModelParams(b=draw(st.floats(0.2, 8.0)), eps=draw(st.floats(0.0, 0.95)), n=n, tau=tau)
    states = []
    for _ in range(draw(st.integers(1, 4))):
        ftds = [[draw(_frac) * tau for _ in range(draw(st.integers(0, 2)))] for _ in range(n - 1)]
        ftds.append([0.0] + [draw(_frac) * tau for _ in range(draw(st.integers(0, 1)))])
        phases = [draw(_unit) for _ in range(n - 1)] + [0.0]
        states.append(network_state(phases, ftds))
    return params, states


class TestBatchedDetection:
    """detect_periodicity_many and detect_periodicity are scalar_detect,
    start by start."""

    def test_reference_grid_is_repr_identical(self):
        grid = [i * 0.05 for i in range(20)]
        starts = [eq_init_state(P, t1, t2) for t1 in grid for t2 in grid]
        want = assert_batch_matches(P, starts)
        assert {w.poincare_period for w in want} >= {1, 2, 3, 4, 5}

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(section_states(), st.sampled_from([1e-9, 1e-6]))
    def test_random_section_states(self, drawn, tol):
        params, states = drawn
        assert_batch_matches(params, states, max_iter=40, tol=tol)

    def test_prefilter_endpoints(self):
        # tol equal to the phase-0 gap between two visited states that
        # differ most in phase 0, with the earlier one exactly at
        # p0 - tol or p0 + tol of the later: a candidate on each end of the
        # prefilter that the distance test then accepts.
        ends = {-1: [], 1: []}
        for t1, t2 in itertools.product([i * 0.1 for i in range(10)], repeat=2):
            start = eq_init_state(P, t1, t2)
            chain = [start]
            for _ in range(8):
                chain.append(poincare_map(P, chain[-1])[0])
            for a, b in itertools.combinations(range(len(chain)), 2):
                tol = state_distance(chain[a], chain[b])
                p0, old = chain[b].phases[0], chain[a].phases[0]
                if 0.0 < tol == abs(p0 - old):
                    for side in (-1, 1):
                        if old == p0 + side * tol:
                            ends[side].append((start, b + 1, tol))
        for side, cases in ends.items():
            assert len(cases) >= 20, side
            for start, max_iter, tol in cases[:20]:
                assert_batch_matches(P, [start], max_iter=max_iter, tol=tol)

    def test_budget_exhaustion_keeps_the_last_state(self):
        grid = [0.13, 0.37, 0.61, 0.89]
        starts = [eq_init_state(P, t1, t2) for t1 in grid for t2 in grid]
        want = assert_batch_matches(P, starts, max_iter=3)
        assert sum(isinstance(w, NotPeriodic) for w in want) >= 8

    def test_long_orbits_grow_the_history(self):
        # Weak coupling: these starts need up to about 120 returns, so the
        # history arrays double several times while starts finish at many
        # different returns.
        weak = ModelParams(b=3.0, eps=0.005, n=3, tau=0.58)
        grid = [i * 0.2 for i in range(5)]
        starts = [eq_init_state(weak, t1, t2) for t1 in grid for t2 in grid]
        want = assert_batch_matches(weak, starts)
        assert max(w.transient_iters + w.detected_period for w in want) > 64

    def test_the_history_holds_little_beyond_its_content(self, monkeypatch):
        # The same weak grid.  Where the log holds the most states, its
        # arrays take at most a quarter more than the values in them:
        # phases and return time, each FTD entry with its sender, and each
        # delivery with its n multiplicities.  Padded to the widest entry,
        # as it once was, the log took about half again as much.
        weak = ModelParams(b=3.0, eps=0.005, n=3, tau=0.58)
        grid = [i * 0.2 for i in range(5)]
        starts = [eq_init_state(weak, t1, t2) for t1 in grid for t2 in grid]
        logged, add = [], lockstep._History.add

        def measured(self, *args):
            add(self, *args)
            ftds, deliveries = self.ftds, self.deliveries
            held = [self.slot, self.age, self.phases, self.elapsed, ftds.at, deliveries.at]
            held += [*ftds.columns, *deliveries.columns]
            items, received = int(ftds.at[self.size]), int(deliveries.at[self.size])
            content = self.size * 8 * (self.n + 1)
            content += items * (8 + ftds.columns[1].itemsize)
            content += received * (8 + self.n * deliveries.columns[1].itemsize)
            logged.append((self.size, sum(a.nbytes for a in held), content))

        monkeypatch.setattr(lockstep._History, "add", measured)
        detect_periodicity_many(weak, starts)
        size, allocated, content = max(logged)
        assert size > 500
        assert allocated <= 1.25 * content

    def test_finished_starts_release_their_history(self, monkeypatch):
        # Weak coupling, as above: once only the longest orbits are left, a
        # batch holds their history plus the copied-out cycle of each start
        # that finished, and not the states or receptions of the finished
        # starts' earlier returns.
        weak = ModelParams(b=3.0, eps=0.005, n=3, tau=0.58)
        grid = [i * 0.2 for i in range(5)]
        starts = [eq_init_state(weak, t1, t2) for t1 in grid for t2 in grid]
        results = detect_periodicity_many(weak, starts)
        ends = [r.transient_iters + r.detected_period for r in results]
        longest = [s for s, e in zip(starts, ends) if e == max(ends)]
        real = lockstep.LockstepEngine._section_return

        def held_at_last_return(batch):
            held = []

            def spy(self, trace):
                held.append(tracemalloc.get_traced_memory()[0])
                return real(self, trace)

            monkeypatch.setattr(lockstep.LockstepEngine, "_section_return", spy)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                detect_periodicity_many(weak, batch)
            finally:
                tracemalloc.stop()
            assert len(held) == max(ends)
            return held[-1] - base

        finished = len(starts) - len(longest)
        assert finished >= 20
        assert held_at_last_return(starts) - held_at_last_return(longest) < 2048 * finished

    def test_zero_delay_replays_every_return_on_the_scalar_engine(self, monkeypatch):
        # At tau <= COINCIDENCE_TOL every fire puts its own pulse due within
        # the same timestamp, a cascade, so the lockstep engine replays each
        # row's every return from its start on a scalar Engine.
        replayed = []

        class Counted(engine.Engine):
            def __init__(self, params, state):
                replayed.append(state)
                super().__init__(params, state)

        monkeypatch.setattr(lockstep, "Engine", Counted)
        for tau in (0.0, 1e-12):
            params = ModelParams(b=3.0, eps=0.58, n=3, tau=tau)
            starts = [eq_init_state(params, t1, t2) for t1 in (0.1, 0.5) for t2 in (0.3, 0.7)]
            want = assert_batch_matches(params, starts)
            replayed.clear()
            detect_periodicity_many(params, starts)
            assert len(replayed) == sum(w.transient_iters + w.detected_period for w in want)

    def test_cascade_stall_raises_like_the_scalar_detector(self):
        # At zero delay this coupling re-fires within one timestamp forever.
        stall = ModelParams(b=3.0, eps=1.6, n=3, tau=0.0)
        starts = [eq_init_state(stall, t1, t2) for t1 in (0.0, 0.5) for t2 in (0.0, 0.5)]
        want = assert_batch_matches(stall, starts)
        assert any(isinstance(w, EngineStallError) for w in want)

    def test_horizon_raises_like_the_scalar_detector(self, monkeypatch):
        # The first return from (0.9, 0.95) takes 0.63; (0.4, 0.3) never
        # takes more than 0.48.
        shorten_horizon(monkeypatch, 0.62)
        starts = [eq_init_state(P, 0.4, 0.3), eq_init_state(P, 0.9, 0.95)]
        want = assert_batch_matches(P, starts)
        assert isinstance(want[1], HorizonExceededError)

    def test_first_failing_start_wins(self, monkeypatch):
        shorten_horizon(monkeypatch, 0.62)
        good = sync_state()
        slow = eq_init_state(P, 0.9, 0.95)
        bad = network_state((0.1, 0.2, 0.3), ((), (), ()))
        with pytest.raises(SectionError):
            detect_periodicity_many(P, [good, bad, slow])
        with pytest.raises(HorizonExceededError):
            detect_periodicity_many(P, [good, slow, bad])

    @pytest.mark.parametrize(
        "bad",
        [
            NetworkState((1.0, 0.2, 0.0), ((), (), (0.0,))),
            NetworkState((math.nan, 0.2, 0.0), ((), (), (0.0,))),
            NetworkState((0.1, 0.2, 0.0), ((0.7,), (), (0.0,))),
            NetworkState((0.1, 0.2, 0.0), ((0.3, 0.1), (), (0.0,))),
            NetworkState((0.1, 0.0), ((), (0.0,))),
            NetworkState((0.1, 0.2, 0.0), ((), (0.0,))),
            NetworkState((0.1, 0.2, 0.3), ((), (), (0.0,))),
            NetworkState((0.1, 0.2, 0.0), ((), (), (0.1,))),
            NetworkState((1.0, 0.2, 0.3), ((), (), (0.1,))),
        ],
        ids=[
            "phase-one",
            "phase-nan",
            "ftd-above-tau",
            "ftds-descending",
            "wrong-n",
            "wrong-ftd-rows",
            "last-phase",
            "last-ftd",
            "state-and-section",
        ],
    )
    @pytest.mark.parametrize("at", [0, 2, 3], ids=["first", "middle", "last"])
    def test_bad_start_raises_require_section_states_error(self, bad, at):
        # Starts are checked together, as rows; the first bad one raises
        # what require_section_state raises for it (StateError before
        # SectionError), also when a later start is bad too.
        with pytest.raises((StateError, SectionError)) as want:
            require_section_state(P, bad)
        starts = [sync_state(), eq_init_state(P, 0.3, 0.6), eq_init_state(P, 0.7, 0.1)]
        starts.insert(at, bad)
        if at < 3:
            starts.append(network_state((0.1, 0.2, 0.3), ((), (), (0.0,))))
        with pytest.raises(type(want.value)) as got:
            detect_periodicity_many(P, starts)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "starts",
        [
            [NetworkState(("0.5", 0.2, 0.0), ((), (), (0.0,)))],
            [NetworkState((0.1, 0.2, 0.0), (("0.5",), (), (0.0,)))],
            [
                NetworkState((1.0, 0.2, 0.0), ((), (), (0.0,))),
                NetworkState(("x", 0.2, 0.0), ((), (), (0.0,))),
            ],
            [sync_state(), NetworkState((0.1, None, 0.0), ((), (), (0.0,)))],
            [sync_state(), NetworkState((0.1, (0.2,), 0.0), ((), (), (0.0,)))],
        ],
        ids=["numeric-string", "numeric-string-ftd", "string-after-bad", "none", "nested"],
    )
    def test_starts_not_of_real_numbers_are_checked_one_by_one(self, starts):
        # Rows show only real numbers, so a batch holding anything else is
        # checked start by start, in order, as require_section_state checks.
        for state in starts:
            try:
                require_section_state(P, state)
            except (TypeError, ValueError) as exc:
                want = exc
                break
        with pytest.raises(type(want)) as got:
            detect_periodicity_many(P, starts)
        assert str(got.value) == str(want)

    def test_fractions_are_read_as_numbers(self):
        start = eq_init_state(P, 0.3, 0.6)
        exact = NetworkState(
            tuple(map(Fraction, start.phases)),
            tuple(tuple(map(Fraction, row)) for row in start.ftds),
        )
        assert repr(detect_periodicity_many(P, [exact])) == repr([detect_periodicity(P, start)])

    def test_rejects_bad_budget_and_tolerance(self):
        with pytest.raises(ValueError, match="max_iter"):
            detect_periodicity_many(P, [sync_state()], max_iter=0)
        with pytest.raises(ValueError, match="tol"):
            detect_periodicity_many(P, [sync_state()], tol=0.0)
        assert detect_periodicity_many(P, []) == []


WEAK = ModelParams(b=3.0, eps=0.005, n=3, tau=0.58)


def interleaved_weak_starts():
    """Weak-coupling starts, the longest orbit first, then alternately a
    short and a long one, so that short starts admitted late share the
    engine with long-lived rows."""
    grid = [i * 0.2 for i in range(5)]
    starts = [eq_init_state(WEAK, t1, t2) for t1 in grid for t2 in grid]
    ends = [r.transient_iters + r.detected_period for r in map(scalar_detect, [WEAK] * 25, starts)]
    by_length = sorted(range(len(starts)), key=ends.__getitem__, reverse=True)
    order = itertools.chain.from_iterable(itertools.zip_longest(by_length[:13], by_length[:12:-1]))
    return [starts[s] for s in order if s is not None]


#: Sets of starts for the detection stream: params, the starts and the
#: detector's keyword arguments.
STREAMS = {
    "reference-grid": lambda: (
        P,
        [eq_init_state(P, i * 0.05, j * 0.05) for i in range(20) for j in range(20)],
        {},
    ),
    "weak-interleaved": lambda: (WEAK, interleaved_weak_starts(), {}),
    "three-returns": lambda: (
        P,
        [eq_init_state(P, t1, t2) for t1 in (0.13, 0.37, 0.61, 0.89) for t2 in (0.2, 0.5, 0.8)],
        {"max_iter": 3},
    ),
}


@pytest.fixture(scope="module")
def streams():
    """Each set of STREAMS with its scalar_detect results."""
    out = {}
    for name, make in STREAMS.items():
        params, starts, kwargs = make()
        out[name] = params, starts, kwargs, detect_each(params, starts, **kwargs)
    return out


def spy_returns(monkeypatch) -> list:
    """Record each lockstep return as (rows, events, failed rows)."""
    returns = []
    real = lockstep.LockstepEngine._section_return

    def spy(self, trace):
        rows, before = len(self.phases), self.events_processed
        out = real(self, trace)
        returns.append((rows, self.events_processed - before, sorted(out.errors)))
        return out

    monkeypatch.setattr(lockstep.LockstepEngine, "_section_return", spy)
    return returns


class TestDetectionStream:
    """Detection keeps at most poincare._LIVE_ROWS starts live and admits
    the next ones, in order, as rows finish; every start's result is still
    scalar_detect's."""

    @pytest.mark.parametrize("rows", [1, 2, 7, poincare._LIVE_ROWS])
    @pytest.mark.parametrize("name", list(STREAMS))
    def test_any_number_of_live_rows_gives_the_scalar_results(
        self, streams, monkeypatch, name, rows
    ):
        params, starts, kwargs, want = streams[name]
        monkeypatch.setattr(poincare, "_LIVE_ROWS", rows)
        got = detect_periodicity_many(params, starts, **kwargs)
        assert [repr(g) for g in got] == [repr(w) for w in want]
        if name == "three-returns":
            # Starts admitted after the first seven end after three returns.
            assert sum(isinstance(w, NotPeriodic) for w in want[7:]) >= 4

    def test_no_start_waits_on_a_slower_one(self, streams, monkeypatch):
        # 50 live rows: every return but the last few steps 50 rows, so the
        # returns number at most the row-returns over 50 plus the longest
        # orbit's, and the rows' events are those of one row at a time.
        _, starts, _, want = streams["reference-grid"]
        lengths = [w.transient_iters + w.detected_period for w in want]
        events = []
        for rows in (50, 1):
            monkeypatch.setattr(poincare, "_LIVE_ROWS", rows)
            returns = spy_returns(monkeypatch)
            detect_periodicity_many(P, starts)
            events.append(sum(e for _, e, _ in returns))
            if rows == 50:
                assert len(returns) <= math.ceil(sum(lengths) / 50) + max(lengths)
                assert max(r for r, _, _ in returns) == 50
        assert events[0] == events[1]

    def test_starts_are_taken_as_rows_free_up(self, streams, monkeypatch):
        # Two live rows: at every return at most _LIVE_ROWS starts have been
        # taken beyond those admitted, so a scan never holds all its starts.
        _, starts, _, want = streams["reference-grid"]
        starts, want = starts[:10], want[:10]
        taken, admitted, seen = [0], [0], []

        def counted():
            for state in starts:
                taken[0] += 1
                yield state

        add, section_return = lockstep.LockstepEngine.add, lockstep.LockstepEngine._section_return

        def counting_add(self, phases, *rows):
            admitted[0] += len(phases)
            return add(self, phases, *rows)

        def spy(self, trace):
            seen.append((taken[0], admitted[0]))
            return section_return(self, trace)

        monkeypatch.setattr(poincare, "_LIVE_ROWS", 2)
        monkeypatch.setattr(lockstep.LockstepEngine, "add", counting_add)
        monkeypatch.setattr(lockstep.LockstepEngine, "_section_return", spy)
        got = detect_periodicity_many(P, counted())
        assert [repr(g) for g in got] == [repr(w) for w in want]
        assert seen[0] == (2, 2) and taken[0] == admitted[0] == 10
        assert all(took <= rows + 2 for took, rows in seen)

    @pytest.mark.parametrize("late", ["horizon", "section"])
    def test_a_late_start_failing_first_loses_to_an_earlier_start(self, monkeypatch, late):
        # Two live rows.  The first start fails at its third return; the
        # rotating wave finishes at its first, and the third start takes
        # its row and fails before the first does: at its first return, or
        # when checked, as a bad section state.  The fourth start, after a
        # failed one, is never admitted.
        shorten_horizon(monkeypatch, 0.5)
        monkeypatch.setattr(poincare, "_LIVE_ROWS", 2)
        bad = {
            "horizon": eq_init_state(P, 0.9, 0.95),
            "section": network_state((0.1, 0.2, 0.3), ((), (), ())),
        }[late]
        starts = [eq_init_state(P, 0.15, 0.3), rotating_wave_state(P.tau), bad, sync_state()]
        want = assert_batch_matches(P, starts)
        assert isinstance(want[0], HorizonExceededError)
        assert str(want[2]) != str(want[0])
        returns = spy_returns(monkeypatch)
        with pytest.raises(HorizonExceededError):
            detect_periodicity_many(P, starts)
        want_returns = {
            "horizon": [(2, []), (2, [1]), (1, [0])],
            "section": [(2, []), (1, []), (1, [0])],
        }[late]
        assert [(rows, failed) for rows, _, failed in returns] == want_returns


class TestRaggedHistory:
    """lockstep._History, which stores FTD entries and deliveries flat with
    offsets, logs and reads out what the padded reference in
    tests/oracle.py does, over any sequence of admissions, returns and
    departures."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_the_padded_reference(self, data):
        n = data.draw(st.integers(2, 4), label="n")
        tol = data.draw(st.sampled_from([1e-9, 0.3]), label="tol")
        values = st.sampled_from([0.0, 0.25, 0.5, 0.5 + 1e-12, 0.75])
        hist, ref = lockstep._History(n, 16, 64), PaddedHistory(n)
        ages: list[int] = []

        def draw_entries(count: int, deliveries: bool) -> list:
            phases = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                                 min_size=count, max_size=count)))
            phases = phases.reshape(count, n)
            sizes = data.draw(st.lists(st.integers(0, 4), min_size=count, max_size=count))
            width = max(sizes, default=0) + data.draw(st.integers(0, 2))
            ftds, senders = np.zeros((count, width)), np.full((count, width), n)
            for k, size in enumerate(sizes):
                senders[k, :size] = sorted(data.draw(
                    st.lists(st.integers(0, n - 1), min_size=size, max_size=size)))
                ftds[k, :size] = data.draw(st.lists(values, min_size=size, max_size=size))
            elapsed = np.array(data.draw(st.lists(values, min_size=count, max_size=count)))
            got = [data.draw(st.integers(0, 3)) if deliveries else 0 for _ in range(count)]
            when, mult = np.zeros(sum(got)), np.zeros((sum(got), n), dtype=int)
            for d in range(sum(got)):
                when[d] = data.draw(values)
                mult[d] = data.draw(st.lists(st.sampled_from([0, 1, 2, 300]),
                                             min_size=n, max_size=n))
                mult[d, data.draw(st.integers(0, n - 1))] = 1
            return [phases, ftds, senders, elapsed.reshape(count), np.array(got, dtype=int),
                    when, mult]

        def revisit(states: list) -> list:
            # Each row's state, or a copy of one it logged, so that a state
            # may match several logged ones.
            for r in range(len(states[0])):
                mine = [e for e in ref.log if e["slot"] == r]
                if mine and data.draw(st.booleans()):
                    e = data.draw(st.sampled_from(mine))
                    states[0][r] = e["phases"]
                    if len(e["who"]) <= states[1].shape[1]:
                        states[1][r], states[2][r] = 0.0, n
                        states[1][r, : len(e["who"])] = e["ftds"]
                        states[2][r, : len(e["who"])] = e["who"]
            return states

        def check():
            # Query states in a padding of their own.
            query = revisit(draw_entries(len(ages), False)[:3])
            assert hist.match(*query, tol).tolist() == ref.match(*query, tol).tolist()
            lo = np.array([data.draw(st.integers(0, a + 1)) for a in ages], dtype=int)
            hi = lo + np.array([data.draw(st.integers(0, 3)) for _ in ages], dtype=int)
            for returns in (False, True):
                got, want = hist.entries(lo, hi, returns), ref.entries(lo, hi, returns)
                for a, b in zip(got, want):
                    assert a.shape == b.shape and np.array_equal(a, b)

        # Tiny compaction blocks, so that departures move items block by block.
        with patch.object(lockstep, "_BLOCK", 16):
            for _ in range(data.draw(st.integers(1, 12), label="steps")):
                step = data.draw(st.sampled_from(["admit", "return", "leave"]))
                if step == "admit" and len(ages) < 16:
                    count = data.draw(st.integers(1, min(3, 16 - len(ages))))
                    entry, slots = draw_entries(count, False), np.arange(len(ages), len(ages) + count)
                    for log in (hist, ref):
                        log.add(slots, np.zeros(count, dtype=int), entry)
                    ages += [0] * count
                elif step == "return" and ages:
                    ages = [a + 1 for a in ages]
                    entry = draw_entries(len(ages), True)
                    entry[:3] = revisit(entry[:3])
                    for log in (hist, ref):
                        log.add(np.arange(len(ages)), np.array(ages), entry)
                elif step == "leave" and ages:
                    rows = np.array(data.draw(st.lists(st.booleans(), min_size=len(ages),
                                                       max_size=len(ages))))
                    for log in (hist, ref):
                        log.keep(rows)
                    ages = [a for a, kept in zip(ages, rows) if kept]
                check()

    @pytest.mark.parametrize("coordinate", [0, 1, 2])
    def test_every_phase_is_filtered_by_the_distance_subtraction(self, coordinate):
        # |old - new| <= tol, but old lies outside the rounded bounds new -
        # tol, new + tol: the prefilter on each phase subtracts as the
        # distance does, so the logged state still matches.
        old, new, tol = 0.08433871791675089, 0.4453871940548014, 0.3610484761380505
        assert abs(old - new) <= tol and not new - tol <= old <= new + tol
        hist = lockstep._History(3, 1, 1)
        logged, query = np.full((1, 3), 0.25), np.full((1, 3), 0.25)
        logged[0, coordinate], query[0, coordinate] = old, new
        ftds, senders = np.zeros((1, 1)), np.full((1, 1), 2)
        empty = [np.zeros(1), np.zeros(1, dtype=int), np.zeros(0), np.zeros((0, 3), dtype=int)]
        hist.add(np.zeros(1, dtype=int), np.zeros(1, dtype=int), [logged, ftds, senders, *empty])
        assert hist.match(query, ftds, senders, tol).tolist() == [0]

    def test_no_ftd_compare_before_the_first_pulse_arrives(self, monkeypatch):
        # At tau = 1000 the phases repeat at every return while each return
        # adds a firing memory per oscillator, until the first pulse arrives
        # after about 1000 returns.  Every logged state passes the phase
        # prefilter, but none has the row's count of FTD entries, so
        # _row_distance is handed no state to compare.
        params = ModelParams(b=3.0, eps=0.58, n=3, tau=1000.0)
        compared, row_distance = [], lockstep._row_distance

        def counting(n, a, b):
            compared.append(len(a[0]))
            return row_distance(n, a, b)

        monkeypatch.setattr(lockstep, "_row_distance", counting)
        result = detect_periodicity(params, eq_init_state(params, 0.0, 0.5), max_iter=300)
        assert isinstance(result, NotPeriodic)
        assert result.last_state.phases == (0.0, 0.5, 0.0)
        assert len(compared) == 300 and sum(compared) == 0
        # The stand-in counts: at the reference delay the orbit is found by
        # comparing logged states.
        compared.clear()
        assert detect_periodicity(P, eq_init_state(P, 0.0, 0.5)).periodic
        assert sum(compared) > 0

"""Tests for the section map, cycle detection, and pulse signatures."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import o_distance, o_section_return

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
from isochron import lockstep, poincare
from isochron.engine import EngineStallError, HorizonExceededError
from isochron.poincare import _minimal_cycle

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

    def test_section_oscillator_selectable(self):
        state = network_state(
            phases=(0.0, 0.2, 0.1), ftds=((0.0, 0.1), (0.2,), (0.3,))
        )
        require_section_state(P, state, k=0)
        with pytest.raises(SectionError):
            require_section_state(P, state)  # default: last oscillator

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


class TestMinimalCycle:
    def test_reduces_detected_length_over_divisors(self):
        a = network_state(phases=(0.1, 0.2, 0.0), ftds=((0.1,), (0.2,), (0.0,)))
        b = network_state(phases=(0.3, 0.4, 0.0), ftds=((0.3,), (0.4,), (0.0,)))
        states = [a, b, a, b]
        assert _minimal_cycle(states, 0, 4, tol=1e-9) == 2
        assert _minimal_cycle([a, a, a], 0, 3, tol=1e-9) == 1
        assert _minimal_cycle([a, b, a, b], 0, 2, tol=1e-9) == 2


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
        monkeypatch.setattr(poincare, "_engine_from", no_engine)
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


def detect_each(params, states, **kwargs):
    """detect_periodicity per start: its result, or the exception it raised."""
    out = []
    for state in states:
        try:
            out.append(detect_periodicity(params, state, **kwargs))
        except Exception as exc:  # compared by type and message below
            out.append(exc)
    return out


def assert_batch_matches(params, states, **kwargs):
    """detect_periodicity_many equals detect_periodicity start by start (by
    repr), and raises what the first raising start raises."""
    want = detect_each(params, states, **kwargs)
    raised = [w for w in want if isinstance(w, Exception)]
    if raised:
        with pytest.raises(type(raised[0])) as exc:
            detect_periodicity_many(params, states, **kwargs)
        assert str(exc.value) == str(raised[0])
    else:
        got = detect_periodicity_many(params, states, **kwargs)
        assert [repr(g) for g in got] == [repr(w) for w in want]
    return want


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
    """detect_periodicity_many is detect_periodicity, start by start."""

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

    def test_zero_delay_runs_on_the_scalar_detector(self, monkeypatch):
        # At tau <= COINCIDENCE_TOL every fire cascades within its own
        # timestamp, so no lockstep engine is built.
        monkeypatch.setattr(lockstep, "LockstepEngine", None)
        for tau in (0.0, 1e-12):
            params = ModelParams(b=3.0, eps=0.58, n=3, tau=tau)
            starts = [eq_init_state(params, t1, t2) for t1 in (0.1, 0.5) for t2 in (0.3, 0.7)]
            assert_batch_matches(params, starts)

    def test_cascade_stall_raises_like_the_scalar_detector(self):
        # At zero delay this coupling re-fires within one timestamp forever.
        stall = ModelParams(b=3.0, eps=1.6, n=3, tau=0.0)
        starts = [eq_init_state(stall, t1, t2) for t1 in (0.0, 0.5) for t2 in (0.0, 0.5)]
        want = assert_batch_matches(stall, starts)
        assert any(isinstance(w, EngineStallError) for w in want)

    def test_horizon_raises_like_the_scalar_detector(self):
        # The first return from (0.9, 0.95) takes 0.63; (0.4, 0.3) never
        # takes more than 0.48.
        starts = [eq_init_state(P, 0.4, 0.3), eq_init_state(P, 0.9, 0.95)]
        want = assert_batch_matches(P, starts, max_time_per_return=0.62)
        assert isinstance(want[1], HorizonExceededError)

    def test_first_failing_start_wins(self):
        good = sync_state()
        slow = eq_init_state(P, 0.9, 0.95)
        bad = network_state((0.1, 0.2, 0.3), ((), (), ()))
        with pytest.raises(SectionError):
            detect_periodicity_many(P, [good, bad, slow], max_time_per_return=0.62)
        with pytest.raises(HorizonExceededError):
            detect_periodicity_many(P, [good, slow, bad], max_time_per_return=0.62)

    def test_rejects_bad_budget_and_tolerance(self):
        with pytest.raises(ValueError, match="max_iter"):
            detect_periodicity_many(P, [sync_state()], max_iter=0)
        with pytest.raises(ValueError, match="tol"):
            detect_periodicity_many(P, [sync_state()], tol=0.0)
        assert detect_periodicity_many(P, []) == []

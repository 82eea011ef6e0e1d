"""Tests for the analytic region toolkit: constraint systems, membership,
the period-4 self-map, embeddings, sampling, volumes, and the
simulation-backed oracle."""

import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg
from oracle import scalar_detect, scalar_oracle
from scipy.spatial import ConvexHull
from test_poincare import shorten_horizon

from isochron import (
    FAMILIES,
    KINDS,
    DomainError,
    ModelParams,
    NetworkState,
    cycle_state,
    detect_periodicity,
    g_algebra,
    g_map,
    ir4_projection_contains,
    jump,
    jump_coeffs,
    membership,
    membership_many,
    membership_margin,
    network_state,
    phase_scan,
    poincare_map,
    projection_compare,
    pulse_equivalent,
    pulse_signature,
    region_center,
    region_exists,
    region_oracle,
    region_spec,
    region_volume,
    s_embed,
    sample_interior,
    state_distance,
    states_match,
    trigger_threshold,
)
from isochron import lockstep, regions
from isochron.engine import HorizonExceededError, StateError
from isochron.poincare import SectionError, _cycle_results, _cycle_rows
from isochron.regions import (
    Functional,
    RegionSpec,
    _certainly_empty,
    _enumerate_vertices,
    _halfspaces,
    _network_sort,
    _ordering_simplex_sample,
    _slab_free_index,
    _subset_index,
)

P = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)

#: Bounded-functional values of the period-4 system at sigma = (0.30, 0.10,
#: 0.40), frozen from 50-digit evaluation of the closed forms.
IR4_F_AT_SAMPLE = (
    0.9687414161989698,
    0.8410031991284843,
    0.9410031991284843,
    0.8887414161989698,
)

#: The common functional value at each family's center (frozen, 50-digit):
#: jump(tau/2)+tau/4, jump(tau/3)+tau/3, jump(tau/5)+2*tau/5 at the
#: reference parameters.
CENTER_VALUE = {
    "IR4": 0.909872307663727,
    "IR3": 0.7274709251563802,
    "IR5": 0.5815498191505029,
}

#: Single-pulse trigger threshold at the reference parameters (frozen).
H_STAR = 0.38850711097530377


def H(x: float) -> float:
    """Single-pulse response at the reference parameters."""
    return jump(P, x, P.eps_hat)


def ir4_definition_values(sigma, tau: float) -> tuple[float, ...]:
    """The period-4 bounded functionals straight from their definitions."""
    s1, s2, s3 = sigma
    return (
        H(s1) + tau - s3,
        H(tau - s3 + s2) + s3 - s1,
        H(tau - s1) + s1 - s2,
        H(s3 - s2) + s2,
    )


def ir3_definition_values(sigma, tau: float) -> tuple[float, ...]:
    """The period-3 bounded functionals, with the locked pair's shared
    firing-time distance written sigma_1."""
    s1, s3 = sigma
    return (
        H(s1) + tau - s3,
        H(tau - s3) + s3 - s1,
        H(s3 - s1) + s1,
        s3,
        tau - s1,
        tau + s1 - s3,
    )


def ir5_definition_values(sigma, tau: float) -> tuple[float, ...]:
    """The period-5 bounded functionals straight from their definitions."""
    s1, s2a, s2b, s3 = sigma
    return (
        H(s2a) + tau - s3,
        H(tau - s2b) + s2b - s1,
        H(s2b - s3) + s3 - s2a,
        H(s3 - s1) + s1,
        H(s1 - s2a) + s2a + tau - s2b,
    )


DEFINITION_ROUTES = {
    "IR3": ir3_definition_values,
    "IR4": ir4_definition_values,
    "IR5": ir5_definition_values,
}


class TestRegionSpecs:
    @pytest.mark.parametrize("kind", ["IR3", "IR4", "IR5"])
    def test_coefficients_match_definitions(self, kind):
        """The precomputed affine coefficients must reproduce the literal
        response-function compositions on random ordered points."""
        spec = region_spec(P, kind)
        rng = np.random.default_rng(7)
        pts = _ordering_simplex_sample(rng, kind, P.tau, 100)
        for row in pts:
            sigma = tuple(float(v) for v in row)
            expect = DEFINITION_ROUTES[kind](sigma, P.tau)
            got = tuple(f.value(sigma) for f in spec.functionals)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_period4_values_at_frozen_point(self):
        spec = region_spec(P, "IR4")
        sigma = (0.30, 0.10, 0.40)
        got = tuple(f(sigma) for f in spec.functionals)
        assert got == pytest.approx(IR4_F_AT_SAMPLE, rel=1e-14)

    def test_ordering_chain_has_dim_plus_one_rows(self):
        for kind, dim in (("IR3", 2), ("IR4", 3), ("IR5", 4)):
            spec = region_spec(P, kind)
            assert spec.dim == dim
            assert len(spec.orderings) == dim + 1
            assert len(spec.labels) == dim
            assert spec.tau == P.tau

    def test_functional_bounds(self):
        spec4 = region_spec(P, "IR4")
        assert all(
            f.lower == pytest.approx(H_STAR, rel=1e-14) for f in spec4.functionals
        )
        assert all(f.upper == 1.0 for f in spec4.functionals)
        spec3 = region_spec(P, "IR3")
        h2 = trigger_threshold(P, 2)
        assert [f.lower for f in spec3.functionals[3:]] == [h2] * 3

    def test_dispatch_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            region_spec(P, "IR6")
        with pytest.raises(DomainError):
            region_center("IR6", P.tau)
        with pytest.raises(DomainError):
            s_embed(P, "IR6", (0.1, 0.2))

    def test_json_dict_round_trips_structure(self):
        spec = region_spec(P, "IR4")
        d = spec.to_json_dict()
        assert d["kind"] == "IR4"
        assert d["labels"] == ["sigma1", "sigma2", "sigma3"]
        assert len(d["orderings"]) == 4
        assert len(d["functionals"]) == 4
        assert d["functionals"][0]["label"] == "F1"


class TestMeanIdentity:
    @pytest.mark.parametrize("kind", ["IR3", "IR4", "IR5"])
    def test_functional_mean_is_constant(self, kind):
        """The response-bounded functionals average to the same value at
        every point of sigma-space: the value taken at the center.  (Their
        weight vectors sum to zero.)"""
        spec = region_spec(P, kind)
        bounded = {"IR3": 3, "IR4": 4, "IR5": 5}[kind]
        rng = np.random.default_rng(13)
        for _ in range(100):
            sigma = rng.uniform(-1.0, 2.0, size=spec.dim)
            mean = math.fsum(
                f.value(sigma) for f in spec.functionals[:bounded]
            ) / bounded
            assert mean == pytest.approx(CENTER_VALUE[kind], abs=1e-12)

    @pytest.mark.parametrize("kind", ["IR3", "IR4", "IR5"])
    def test_center_achieves_the_common_value(self, kind):
        spec = region_spec(P, kind)
        bounded = {"IR3": 3, "IR4": 4, "IR5": 5}[kind]
        center = region_center(kind, P.tau)
        for f in spec.functionals[:bounded]:
            assert f.value(center) == pytest.approx(
                CENTER_VALUE[kind], rel=1e-13
            )


class TestMembership:
    def test_frozen_member_and_nonmember(self):
        spec = region_spec(P, "IR4")
        assert membership(spec, (0.30, 0.10, 0.40))
        assert not membership(spec, (0.10, 0.30, 0.40))  # sigma2 > sigma1
        assert membership(spec, region_center("IR4", P.tau))

    def test_margin_shrinks_the_region(self):
        spec = region_spec(P, "IR4")
        sigma = (0.30, 0.10, 0.40)
        assert membership(spec, sigma, margin=0.0)
        assert not membership(spec, sigma, margin=1.0)

    def test_margin_function_agrees_with_predicate(self):
        spec = region_spec(P, "IR4")
        rng = np.random.default_rng(3)
        pts = _ordering_simplex_sample(rng, "IR4", P.tau, 500)
        for row in pts:
            sigma = tuple(float(v) for v in row)
            m = membership_margin(spec, sigma)
            if abs(m) < 1e-12:
                continue
            assert membership(spec, sigma) == (m > 0)

    def test_vectorized_matches_scalar(self):
        spec = region_spec(P, "IR4")
        rng = np.random.default_rng(5)
        pts = _ordering_simplex_sample(rng, "IR4", P.tau, 200)
        flags = membership_many(spec, pts)
        for row, flag in zip(pts, flags):
            assert membership(spec, tuple(row)) == bool(flag)

    def test_wrong_dimension_rejected(self):
        spec = region_spec(P, "IR4")
        with pytest.raises(DomainError):
            membership(spec, (0.1, 0.2))

    @pytest.mark.parametrize(
        "sigmas",
        [np.zeros(3), np.zeros(0), np.zeros((2, 4)), np.zeros((2, 2)), np.zeros((1, 1, 3))],
        ids=["one-point", "one-empty", "too-wide", "too-narrow", "three-d"],
    )
    def test_vectorized_rejects_all_but_rows_of_dim_columns(self, sigmas):
        """A single point is not read as dim points of one coordinate each."""
        with pytest.raises(DomainError, match=r"shape \(rows, 3\), got \("):
            membership_many(region_spec(P, "IR4"), sigmas)

    def test_vectorized_empty_rows_give_an_empty_mask(self):
        mask = membership_many(region_spec(P, "IR4"), np.zeros((0, 3)))
        assert mask.shape == (0,) and mask.dtype == bool

    def test_nonfinite_points_are_outside(self):
        spec = region_spec(P, "IR4")
        member = (0.30, 0.10, 0.40)
        bad = [
            [v if i == col else member[i] for i in range(3)]
            for col in range(3)
            for v in (np.nan, np.inf, -np.inf)
        ]
        sigmas = np.array([member, *bad, [np.nan] * 3, [np.inf] * 3, [-np.inf] * 3])
        with np.errstate(invalid="ignore"):
            mask = membership_many(spec, sigmas)
        assert mask.tolist() == [True] + [False] * (len(sigmas) - 1)
        assert [membership(spec, row) for row in sigmas.tolist()] == mask.tolist()

    def test_nonfinite_points_raise_no_warning(self):
        sigmas = np.array([[np.inf, np.inf, np.inf], [-np.inf, 0.1, 0.2], [np.nan, 0.1, 0.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = membership_many(region_spec(P, "IR4"), sigmas)
        assert mask.tolist() == [False] * 3

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(KINDS),
        st.floats(0.05, 2.0),
        st.floats(0.0, 0.95),
        st.sampled_from([0.0, 1e-9]),
        st.sampled_from(["chain", "first-row-only"]),
        st.booleans(),
        st.data(),
    )
    def test_chain_rows_equal_the_matmul_reference(
        self, kind, tau, eps, margin, orderings, functionals, data
    ):
        # The chain rows are decided by column subtractions; every row's
        # verdict must be the per-constraint matmul's, on drawn rows with
        # ties, zeros of both signs, the delay itself and non-finite
        # entries.  Without the functionals the chain alone must keep a
        # non-finite row outside; with only its first row it no longer
        # reads every coordinate with both signs, and every row is a matmul.
        spec = region_spec(ModelParams(b=3.0, eps=eps, n=3, tau=tau), kind)
        if orderings == "first-row-only":
            spec = dataclasses.replace(spec, orderings=spec.orderings[:1])
        if not functionals:
            spec = dataclasses.replace(spec, functionals=())
        pool = data.draw(st.lists(st.floats(-0.1, tau + 0.1), min_size=1, max_size=3))
        entries = st.sampled_from([*pool, 0.0, -0.0, tau, np.inf, -np.inf, np.nan])
        rows = data.draw(st.lists(st.lists(entries, min_size=spec.dim, max_size=spec.dim)))
        drawn = _ordering_simplex_sample(np.random.default_rng(len(rows)), kind, tau, 64)
        sigmas = np.concatenate([np.array(rows, dtype=float).reshape(-1, spec.dim), drawn])
        want = np.ones(len(sigmas), dtype=bool)
        with np.errstate(invalid="ignore"):
            for w, w0 in spec.orderings:
                want &= sigmas @ np.asarray(w) + w0 > margin
            for f in spec.functionals:
                v = sigmas @ np.asarray(f.weights) + f.offset
                want &= (v >= f.lower + margin) & (v <= f.upper - margin)
        assert membership_many(spec, sigmas, margin=margin).tolist() == want.tolist()


class TestExistence:
    def test_reference_parameters(self):
        assert region_exists(P, "IR4") and region_exists(P, "IR3") and region_exists(P, "IR5")

    def test_center_values_frozen(self):
        tau = P.tau
        assert jump(P, tau / 2, P.eps_hat) + tau / 4 == pytest.approx(
            CENTER_VALUE["IR4"], rel=1e-14
        )
        assert jump(P, tau / 3, P.eps_hat) + tau / 3 == pytest.approx(
            CENTER_VALUE["IR3"], rel=1e-14
        )
        assert jump(P, tau / 5, P.eps_hat) + 2 * tau / 5 == pytest.approx(
            CENTER_VALUE["IR5"], rel=1e-14
        )

    def test_known_parameter_points(self):
        assert region_exists(ModelParams(b=3.0, eps=0.45, n=3, tau=0.45), "IR4")
        assert not region_exists(ModelParams(b=3.0, eps=0.58, n=3, tau=0.10), "IR4")
        assert not region_exists(ModelParams(b=3.0, eps=0.95, n=3, tau=0.95), "IR4")

    @pytest.mark.parametrize("kind", ["IR3", "IR4", "IR5"])
    def test_existence_is_center_membership(self, kind):
        """region_exists must coincide with literal membership of the
        center on a parameter grid — for the period-3 family this also
        checks that the double-pulse bounds follow from the single-pulse
        one."""
        for i in range(1, 21):
            for j in range(1, 21):
                params = ModelParams(b=3.0, eps=i / 20, n=3, tau=j / 20)
                spec = region_spec(params, kind)
                center = region_center(kind, params.tau)
                assert region_exists(params, kind) == membership(
                    spec, center
                ), f"mismatch at eps={i/20}, tau={j/20}"

    @pytest.mark.parametrize("eps", [1.2, 2.5])
    @pytest.mark.parametrize("kind", ["IR3", "IR4", "IR5"])
    def test_coupling_past_full_strength(self, kind, eps):
        """Once a single or double pulse fires anyone the trigger threshold
        is negative; existence and exact volume must still evaluate."""
        params = ModelParams(b=3.0, eps=eps, n=3, tau=0.58)
        assert isinstance(region_exists(params, kind), bool)
        report = region_volume(region_spec(params, kind), method="exact")
        assert report.volume >= 0.0


class TestGMap:
    def test_center_is_fixed(self):
        center = region_center("IR4", P.tau)
        assert g_map(center, P.tau) == pytest.approx(center, abs=1e-15)

    def test_fourth_iterate_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            sigma = tuple(rng.uniform(-2.0, 2.0, size=3))
            cur = sigma
            for _ in range(4):
                cur = g_map(cur, P.tau)
            assert cur == pytest.approx(sigma, abs=1e-12)

    def test_square_fixes_the_period2_line(self):
        c = np.asarray(region_center("IR4", P.tau))
        d = np.asarray(g_algebra(P.tau).line_direction, dtype=float)
        for t in np.linspace(-0.1, 0.1, 21):
            sigma = tuple(c + t * d)
            twice = g_map(g_map(sigma, P.tau), P.tau)
            assert twice == pytest.approx(sigma, abs=1e-13)

    def test_affine_form_matches_map(self):
        gm = g_algebra(P.tau)
        rng = np.random.default_rng(17)
        for _ in range(100):
            sigma = tuple(rng.uniform(-1.0, 1.0, size=3))
            assert gm(sigma) == pytest.approx(g_map(sigma, P.tau), abs=1e-15)

    def test_matrix_algebra_is_exact(self):
        gm = g_algebra(P.tau)
        L = np.asarray(gm.matrix, dtype=np.int64)
        assert np.array_equal(
            np.linalg.matrix_power(L, 4), np.eye(3, dtype=np.int64)
        )
        for k in (1, 2, 3):
            assert not np.array_equal(
                np.linalg.matrix_power(L, k), np.eye(3, dtype=np.int64)
            )
        assert round(np.linalg.det(L)) == -1
        # L - I is invertible, so the affine map has a unique fixed point.
        assert round(np.linalg.det(L - np.eye(3))) == -4

    def test_region_is_invariant(self):
        spec = region_spec(P, "IR4")
        rng = np.random.default_rng(23)
        pts = _ordering_simplex_sample(rng, "IR4", P.tau, 2000)
        checked = 0
        for row in pts:
            sigma = tuple(float(v) for v in row)
            if abs(membership_margin(spec, sigma)) < 1e-9:
                continue
            image = g_map(sigma, P.tau)
            if abs(membership_margin(spec, image)) < 1e-9:
                continue
            assert membership(spec, sigma) == membership(spec, image)
            checked += 1
        assert checked > 1000

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(DomainError):
            g_algebra(0.0)


class TestEmbeddings:
    def test_period4_structure(self):
        sigma = (0.30, 0.10, 0.40)
        state = s_embed(P, "IR4", sigma)
        assert state.phases == (jump(P, 0.30, P.eps_hat), 0.10, 0.0)
        assert state.ftds == ((0.30,), (0.10,), (0.0, 0.40))

    def test_reference_memory_includes_the_fresh_firing(self):
        # The reference oscillator fired at the section crossing itself,
        # so its memory holds both 0 and sigma_3.
        for kind in ("IR3", "IR4", "IR5"):
            state = s_embed(P, kind, region_center(kind, P.tau))
            assert state.ftds[-1][0] == 0.0
            assert len(state.ftds[-1]) == 2

    def test_locked_pair_shares_phase_and_memory(self):
        state = s_embed(P, "IR3", (0.15, 0.30))
        assert state.phases[0] == state.phases[1] == 0.15
        assert state.ftds[0] == state.ftds[1] == (0.15,)

    def test_period5_double_memory(self):
        center = region_center("IR5", P.tau)
        state = s_embed(P, "IR5", center)
        assert len(state.ftds[1]) == 2
        assert state.phases == pytest.approx(
            (0.46554981915050275, 0.34954981915050276, 0.0), abs=1e-15
        )

    def test_ordering_violations_rejected(self):
        with pytest.raises(DomainError):
            s_embed(P, "IR4", (0.10, 0.30, 0.40))  # sigma2 > sigma1
        with pytest.raises(DomainError):
            s_embed(P, "IR4", (0.30, 0.10, 0.60))  # sigma3 > tau
        with pytest.raises(DomainError):
            s_embed(P, "IR3", (0.40, 0.30))  # sigma1 > sigma3
        with pytest.raises(DomainError):
            s_embed(P, "IR5", (0.10, 0.20, 0.50, 0.40))  # sigma2a > sigma1
        with pytest.raises(DomainError):
            s_embed(P, "IR4", (0.30, 0.10))  # too few coordinates

    def test_cycle_state_pair_phase_is_pulse_adjusted(self):
        # On the closed orbit the locked pair has already absorbed the
        # reception that the raw embedding still has in flight.
        state = cycle_state(P, "IR3", (0.15, 0.30))
        theta = jump(P, 0.15, P.eps_hat)
        assert state.phases == (theta, theta, 0.0)
        assert state.ftds == ((0.15,), (0.15,), (0.0, 0.30))

    def test_cycle_state_matches_embedding_for_period45(self):
        assert cycle_state(P, "IR4", (0.30, 0.10, 0.40)) == s_embed(
            P, "IR4", (0.30, 0.10, 0.40)
        )
        c5 = region_center("IR5", P.tau)
        assert cycle_state(P, "IR5", c5) == s_embed(P, "IR5", c5)

    def test_cycle_state_rejects_bad_ordering(self):
        with pytest.raises(DomainError):
            cycle_state(P, "IR3", (0.40, 0.30))


class TestRawEmbeddingTransient:
    """The raw locked-pair embedding is one reception short of the closed
    orbit.  Most interior points still converge to the period-3 cycle, but
    a band where sigma1 + tau - sigma3 falls below the single-pulse trigger
    threshold collapses to synchrony instead.  These counts freeze that
    behavior; the on-orbit state must verify exactly everywhere."""

    def test_raw_start_outcomes_are_frozen(self):
        pts = sample_interior(P, "IR3", 200, seed=0)
        counts: dict[int, int] = {}
        exact = 0
        for row in pts:
            sigma = (float(row[0]), float(row[1]))
            raw = detect_periodicity(P, s_embed(P, "IR3", sigma))
            counts[raw.poincare_period] = counts.get(raw.poincare_period, 0) + 1
            cyc = detect_periodicity(P, cycle_state(P, "IR3", sigma))
            if (
                cyc.poincare_period == 3
                and cyc.transient_iters == 0
                and abs(cyc.orbit_period - 2 * P.tau) < 1e-12
            ):
                exact += 1
        assert counts == {1: 18, 2: 11, 3: 171}
        assert exact == 200

    def test_center_raw_start_needs_one_transient_return(self):
        c = region_center("IR3", P.tau)
        raw = detect_periodicity(P, s_embed(P, "IR3", c))
        assert raw.poincare_period == 3
        assert raw.transient_iters == 1

    def test_center_cycle_state_is_fixed_point(self):
        c = region_center("IR3", P.tau)
        cyc = detect_periodicity(P, cycle_state(P, "IR3", c))
        assert cyc.poincare_period == 1
        assert cyc.transient_iters == 0
        assert cyc.orbit_period == pytest.approx(2 * P.tau / 3, abs=1e-12)


class TestIntertwining:
    def test_section_map_acts_as_g_on_coordinates(self):
        """One section return from the canonical state of sigma lands
        exactly on the canonical state of g(sigma)."""
        pts = sample_interior(P, "IR4", 50, seed=29)
        for row in pts:
            sigma = tuple(float(v) for v in row)
            advanced, _ = poincare_map(P, s_embed(P, "IR4", sigma))
            predicted = s_embed(P, "IR4", g_map(sigma, P.tau))
            assert states_match(advanced, predicted, tol=1e-12)

    def test_four_returns_close_the_orbit(self):
        sigma = (0.30, 0.10, 0.40)
        state = s_embed(P, "IR4", sigma)
        cur = state
        total = 0.0
        for _ in range(4):
            cur, rt = poincare_map(P, cur)
            total += rt
        assert states_match(cur, state, tol=1e-12)
        assert total == pytest.approx(3 * P.tau, abs=1e-12)


class TestSharedChecks:
    """The intertwining and g-algebra checks that verify and the acceptance
    tests share report failures, not only passes."""

    def test_intertwining_reports_starts_of_other_points(self):
        sigmas = sample_interior(P, "IR4", 20, seed=29)
        canonical = [s_embed(P, "IR4", tuple(float(v) for v in row)) for row in sigmas]
        distances = regions.intertwining_distances(P, sigmas)
        assert distances == regions.intertwining_distances(P, sigmas, starts=canonical)
        assert max(distances) <= 1e-12
        assert min(regions.intertwining_distances(P, sigmas, starts=canonical[::-1])) > 1e-9

    @pytest.mark.parametrize(
        "perturb",
        [lambda v: v + 1e-9, lambda v: v * (1.0 + 1e-9)],
        ids=["shifted", "scaled"],
    )
    def test_g_algebra_deviation_sees_a_perturbed_map(self, monkeypatch, perturb):
        tau = P.tau
        points = np.random.default_rng(3).uniform(0.0, tau, size=(100, 3))
        offsets = np.linspace(-tau / 8, tau / 8, 25)
        assert regions.g_algebra_deviation(tau, points, offsets) <= 1e-12
        exact = regions.g_map
        monkeypatch.setattr(
            regions, "g_map", lambda sigma, tau: tuple(perturb(v) for v in exact(sigma, tau))
        )
        assert regions.g_algebra_deviation(tau, points, offsets) > 1e-12

    def test_oracle_reports_each_way_a_cycle_can_fail(self, monkeypatch):
        # Five sampled period-3 points whose cycles are replaced, in order,
        # by no cycle, a transient, a wrong section period, an orbit period
        # off by more than tol and a locked pair that drifts apart; the
        # center's cycle is kept.  The crafted cycles reach the oracle as
        # detection's chunks (rows of a true cycle, without deliveries), so
        # each verdict is read off the cycle table they make.
        detect, orbit = regions._detect, []

        def crafted(params, source, max_iter, tol):
            cycle, ends, chunks = detect(params, source, max_iter, tol)
            table = regions._cycle_table(params.n, chunks)

            def chunk(k, transient=0, period=None, late=0.0, drift=False):
                rows = _cycle_rows(table, [k])[:period]
                phases, returns = table.phases[rows], table.returns[rows]
                returns[-1] += late
                if drift:
                    phases[1] = (0.1, 0.2, 0.0)
                none = np.zeros(len(rows), dtype=int)
                return (
                    np.array([transient]), np.array([len(rows)]),
                    phases, table.ftds[rows], table.senders[rows], returns,
                    none, np.zeros(0), np.zeros((0, params.n), np.uint8),
                )

            good = cycle[0]
            chunks = [
                chunk(good, transient=1),
                chunk(good, period=2),
                chunk(good, late=2e-9),
                chunk(good, drift=True),
                chunk(cycle[-1]),
            ]
            orbit.append(regions._cycle_table(params.n, chunks).orbits.tolist()[2])
            return np.array([-1, 0, 1, 2, 3, 4]), ends, chunks

        monkeypatch.setattr(regions, "_detect", crafted)
        report = region_oracle(P, "IR3", n_samples=5, seed=4)
        assert abs(orbit[0] - 2 * P.tau) > 1e-9
        sigmas = [tuple(map(float, row)) for row in sample_interior(P, "IR3", 5, seed=4)]
        assert report.failures == tuple(
            zip(
                sigmas,
                [
                    "no cycle within 64 iterations",
                    "cycle state needed a transient of 1",
                    "poincare period 2 != 3",
                    f"orbit period {orbit[0]} != 2*tau",
                    "locked pair drifted apart",
                ],
            )
        )
        assert report.ok is False
        assert report.pair_synchronized is False


def scalar_intertwining(params, sigmas, starts=None):
    """The per-point loop that intertwining_distances batches, kept as its
    reference: one poincare_map return per point against s_embed(g(sigma))."""
    distances = []
    for i, row in enumerate(sigmas):
        sigma = tuple(float(v) for v in row)
        start = s_embed(params, "IR4", sigma) if starts is None else starts[i]
        landed, _ = poincare_map(params, start)
        target = s_embed(params, "IR4", g_map(sigma, params.tau))
        distances.append(state_distance(landed, target))
    return distances


def assert_intertwining_matches(params, sigmas, starts=None):
    """intertwining_distances gives the reference loop's distances (by repr)
    or raises its error (type and message); returns what the loop gave."""
    try:
        want = scalar_intertwining(params, sigmas, starts)
    except (ValueError, RuntimeError) as exc:
        with pytest.raises(type(exc)) as got:
            regions.intertwining_distances(params, sigmas, starts)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return exc
    got = regions.intertwining_distances(params, sigmas, starts)
    assert [repr(d) for d in got] == [repr(d) for d in want]
    return want


@st.composite
def chain_points(draw, family: bool):
    """Parameters with n = 3, and points of the period-4 chain
    0 < sigma2 < sigma1 < sigma3 < tau: with family, interior points of a
    family that is not empty; without, points of the ordering simplex at
    any tau, 1e-12 included (where every return is replayed on the scalar
    engine)."""
    b, eps = draw(st.floats(0.2, 8.0)), draw(st.floats(0.01, 0.95))
    seed = draw(st.integers(0, 2**16))
    if not family:
        tau = draw(st.one_of(st.floats(0.02, 1.5), st.just(1e-12)))
        rng = np.random.default_rng(seed)
        sigmas = _ordering_simplex_sample(rng, "IR4", tau, draw(st.integers(1, 20)))
        return ModelParams(b=b, eps=eps, n=3, tau=tau), sigmas
    # The family exists where its center value (a/2 + 1/4) tau + c lies in
    # [h1, 1]; tau is drawn inside that window, away from its ends.
    unit = ModelParams(b=b, eps=eps, n=3, tau=1.0)
    a, c = jump_coeffs(unit, 1)
    lo, hi = (max(trigger_threshold(unit, 1) - c, 0.0) / (a / 2 + 0.25), (1.0 - c) / (a / 2 + 0.25))
    params = ModelParams(b=b, eps=eps, n=3, tau=lo + draw(st.floats(0.05, 0.95)) * (hi - lo))
    assume(region_exists(params, "IR4"))
    try:
        return params, sample_interior(params, "IR4", 20, seed=seed, max_draws=100_000)
    except RuntimeError:  # too thin to sample
        assume(False)


class TestBatchedIntertwining:
    """intertwining_distances is the per-point loop, point by point."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(chain_points(family=True))
    def test_random_family_points(self, drawn):
        params, sigmas = drawn
        assert max(assert_intertwining_matches(params, sigmas)) <= 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(chain_points(family=False))
    def test_random_chain_points(self, drawn):
        params, sigmas = drawn
        assert_intertwining_matches(params, sigmas)

    def test_nudged_starts(self):
        # As in stability_probe: canonical starts with their free phases nudged.
        sigmas = sample_interior(P, "IR4", 40, seed=5)
        nudges = np.random.default_rng(6).uniform(-1e-4, 1e-4, size=(40, 2))
        starts = []
        for row, (d1, d2) in zip(sigmas, nudges):
            state = s_embed(P, "IR4", tuple(float(v) for v in row))
            phases = (state.phases[0] + d1, state.phases[1] + d2, state.phases[2])
            starts.append(network_state(phases=phases, ftds=state.ftds))
        assert max(assert_intertwining_matches(P, sigmas, starts)) <= 1e-9

    def test_reversed_starts(self):
        sigmas = sample_interior(P, "IR4", 20, seed=29)
        canonical = [s_embed(P, "IR4", tuple(float(v) for v in row)) for row in sigmas]
        assert min(assert_intertwining_matches(P, sigmas, canonical[::-1])) > 0.0

    def test_empty_input(self):
        assert regions.intertwining_distances(P, []) == []
        assert regions.intertwining_distances(P, np.empty((0, 3)), starts=[]) == []

    @pytest.mark.parametrize("count", [0, 2, 4, 7])
    def test_starts_must_be_one_per_point(self, monkeypatch, count):
        sigmas = sample_interior(P, "IR4", 10, seed=13)
        canonical = [s_embed(P, "IR4", tuple(float(v) for v in row)) for row in sigmas]
        points = sigmas[: 0 if count == 0 else 3]
        starts = canonical[: 1 if count == 0 else count]
        # The lengths are checked before any return runs, whatever the block size.
        monkeypatch.setattr(regions, "_INTERTWINING_BLOCK", 2)
        monkeypatch.setattr(lockstep.LockstepEngine, "run_until_section", None)
        with pytest.raises(DomainError) as got:
            regions.intertwining_distances(P, points, starts)
        assert f"{len(starts)} starts for {len(points)} points" in str(got.value)

    @pytest.mark.parametrize("block", [7, regions._INTERTWINING_BLOCK])
    def test_block_boundaries(self, monkeypatch, block):
        monkeypatch.setattr(regions, "_INTERTWINING_BLOCK", block)
        sigmas = sample_interior(P, "IR4", 2 * block + 3, seed=13)
        assert max(assert_intertwining_matches(P, sigmas)) <= 1e-12

    @pytest.mark.parametrize("row", [0, 6, 7, 20])
    def test_off_chain_point_raises_like_the_loop(self, monkeypatch, row):
        monkeypatch.setattr(regions, "_INTERTWINING_BLOCK", 7)
        sigmas = sample_interior(P, "IR4", 21, seed=13)
        sigmas[row] = (0.3, 0.35, 0.4)
        assert isinstance(assert_intertwining_matches(P, sigmas), DomainError)
        # sigma2 too small for g(sigma) to stay below tau in floating point:
        # the point itself is on the chain, its image is not.
        sigmas[row] = (0.3, 1e-20, 0.4)
        assert "ordering violated" in str(assert_intertwining_matches(P, sigmas))

    def test_phase_out_of_range_raises_like_the_loop(self):
        wide = ModelParams(b=3.0, eps=0.58, n=3, tau=1.5)
        sigmas = [(0.3, 0.2, 0.4), (1.2, 1.1, 1.3)]
        assert isinstance(assert_intertwining_matches(wide, sigmas), StateError)

    def test_off_section_start_raises_like_the_loop(self):
        sigmas = sample_interior(P, "IR4", 5, seed=13)
        starts = [s_embed(P, "IR4", tuple(float(v) for v in row)) for row in sigmas]
        starts[3] = network_state((0.1, 0.2, 0.3), ((), (), ()))
        assert isinstance(assert_intertwining_matches(P, sigmas, starts), SectionError)

    def test_other_oscillator_counts(self):
        four = ModelParams(b=3.0, eps=0.58, n=4, tau=0.58)
        sigmas = sample_interior(P, "IR4", 3, seed=13)
        # The canonical states have three oscillators: the starts fail.
        assert isinstance(assert_intertwining_matches(four, sigmas), StateError)
        # Four-oscillator starts land infinitely far from them.
        starts = [network_state((t, 0.2, 0.3, 0.0), ((), (), (), (0.0,))) for t in (0.1, 0.5, 0.9)]
        assert assert_intertwining_matches(four, sigmas, starts) == [math.inf] * 3

    def test_horizon_raises_like_the_loop(self, monkeypatch):
        # These returns take 0.33 to 0.53: the horizon stops some of them.
        shorten_horizon(monkeypatch, 0.4)
        sigmas = sample_interior(P, "IR4", 30, seed=13)
        assert isinstance(assert_intertwining_matches(P, sigmas), HorizonExceededError)
        # The first failing point decides, whichever check fails it.
        sigmas[-1] = (0.3, 0.35, 0.4)
        assert isinstance(assert_intertwining_matches(P, sigmas), HorizonExceededError)
        sigmas[0] = (0.3, 0.35, 0.4)
        assert isinstance(assert_intertwining_matches(P, sigmas), DomainError)

    def test_memory_stays_bounded(self):
        # One engine for all 20,000 points peaks near 16 MiB, blocks of
        # 2500 near 3.1 MiB.
        sigmas = sample_interior(P, "IR4", 20_000, seed=1)
        tracemalloc.start()
        try:
            regions.intertwining_distances(P, sigmas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestSampling:
    @pytest.mark.parametrize("kind", ["IR3", "IR4", "IR5"])
    def test_samples_are_interior(self, kind):
        spec = region_spec(P, kind)
        pts = sample_interior(P, kind, 50, seed=1)
        assert pts.shape == (50, spec.dim)
        assert membership_many(spec, pts, margin=5e-10).all()

    def test_deterministic_per_seed(self):
        a = sample_interior(P, "IR4", 20, seed=4)
        b = sample_interior(P, "IR4", 20, seed=4)
        c = sample_interior(P, "IR4", 20, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empty_region_raises(self):
        params = ModelParams(b=3.0, eps=0.58, n=3, tau=0.10)
        with pytest.raises(DomainError):
            sample_interior(params, "IR4", 10, seed=0, max_draws=5000)

    def test_empty_region_raises_before_drawing(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _ordering_simplex_sample(*args)

        monkeypatch.setattr(regions, "_ordering_simplex_sample", counting)
        params = ModelParams(b=1.5, eps=0.7, n=3, tau=0.8)
        with pytest.raises(DomainError, match=r"IR4 is empty at \(eps=0.7, tau=0.8\)"):
            sample_interior(params, "IR4", 10)
        assert calls == []

    def test_zero_samples_is_an_empty_array(self):
        for kind in KINDS:
            pts = sample_interior(P, kind, 0)
            assert pts.shape == (0, region_spec(P, kind).dim)

    def test_negative_sample_count_is_a_domain_error(self):
        with pytest.raises(DomainError, match="-1"):
            sample_interior(P, "IR4", -1)


def sort_and_scatter(x: np.ndarray, wires) -> np.ndarray:
    """Reference for the sorting network: np.sort each row, then scatter
    the ascending values into the columns wires[0], wires[1], ..."""
    out = np.empty_like(x)
    out[:, list(wires)] = np.sort(x, axis=1)
    return out


#: Rows for the network: ties, 0.0, repeated values and subnormals are
#: all likely draws.  Uniform draws are never NaN or -0.0, and neither are these.
NETWORK_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 0.25, 0.58, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308, allow_subnormal=True),
)


class TestSortingNetwork:
    """The sampler sorts with a compare-exchange network; every row it
    returns must equal np.sort's scattered into chain order, bit for bit."""

    # The network sorts _SORT_BLOCK rows at a time; the counts around the
    # block edges leave a last block of 8191, 1 and 3 rows.
    @pytest.mark.parametrize(
        "n",
        [0, 1, 1023, 100_000, regions._SORT_BLOCK - 1, regions._SORT_BLOCK,
         regions._SORT_BLOCK + 1, 2 * regions._SORT_BLOCK + 3],
    )
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("kind", KINDS)
    def test_sampler_equals_sort_and_scatter(self, kind, seed, n):
        got = _ordering_simplex_sample(np.random.default_rng(seed), kind, P.tau, n)
        family = FAMILIES[kind]
        uniforms = np.random.default_rng(seed).uniform(0.0, P.tau, size=(n, family.dim))
        want = sort_and_scatter(uniforms, family.order)
        assert got.shape == want.shape == (n, family.dim)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        st.integers(0, 2**32 - 1),
        st.integers(0, 64),
    )
    @example(1e-300, 0, 64)
    @example(1e300, 0, 64)
    @example(P.tau, 2024, 64)
    def test_scaled_random_is_uniform_bit_for_bit(self, tau, seed, n):
        """The sampler scales rng.random by tau in place of rng.uniform(0.0,
        tau), which computes 0.0 + tau * u from the same stream."""
        x = np.random.default_rng(seed).random((n, 4))
        x *= tau
        want = np.random.default_rng(seed).uniform(0.0, tau, size=(n, 4))
        assert x.tobytes() == want.tobytes()
        for kind in KINDS:
            family = FAMILIES[kind]
            got = _ordering_simplex_sample(np.random.default_rng(seed), kind, tau, n)
            uniforms = np.random.default_rng(seed).uniform(0.0, tau, size=(n, family.dim))
            assert got.tobytes() == sort_and_scatter(uniforms, family.order).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda dim: st.tuples(
                st.permutations(range(dim)),
                st.lists(st.lists(NETWORK_VALUES, min_size=dim, max_size=dim), max_size=8),
            )
        )
    )
    def test_network_on_drawn_rows(self, drawn):
        wires, rows = drawn
        x = np.array(rows, dtype=float).reshape(len(rows), len(wires))
        want = sort_and_scatter(x, wires)
        assert _network_sort(x, tuple(wires)) is x
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_network_sorts_every_zero_one_row(self, dim):
        """The 0-1 principle: a comparator network that sorts every 0-1
        input sorts every input."""
        x = np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
        for wires in itertools.permutations(range(dim)):
            want = sort_and_scatter(x, wires)
            assert _network_sort(x.copy(), wires).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_network_sorts_every_permutation(self, dim):
        x = np.array(list(itertools.permutations(np.linspace(0.1, 0.9, dim))))
        for wires in itertools.permutations(range(dim)):
            got = _network_sort(x.copy(), wires)
            assert np.all(np.diff(got[:, list(wires)], axis=1) > 0)
            assert got.tobytes() == sort_and_scatter(x, wires).tobytes()


class TestVolume:
    def test_exact_values_at_reference(self):
        got = {
            kind: region_volume(region_spec(P, kind)).volume
            for kind in ("IR3", "IR4", "IR5")
        }
        assert got["IR3"] == pytest.approx(0.06275753484758352, rel=1e-10)
        assert got["IR4"] == pytest.approx(0.0010247058166516375, rel=1e-10)
        assert got["IR5"] == pytest.approx(0.0013435599431735976, rel=1e-10)

    @pytest.mark.parametrize("kind", ["IR3", "IR4", "IR5"])
    def test_fan_agrees_with_library_hull_volume(self, kind):
        """Third route: the simplicial-fan total must match the hull
        library's own volume computation on the same vertex set."""
        spec = region_spec(P, kind)
        verts = _enumerate_vertices(spec)
        fan = region_volume(spec, method="exact").volume
        assert fan == pytest.approx(ConvexHull(verts).volume, rel=1e-12)

    @pytest.mark.parametrize("kind", ["IR3", "IR4", "IR5"])
    def test_montecarlo_brackets_exact(self, kind):
        spec = region_spec(P, kind)
        exact = region_volume(spec, method="exact")
        mc = region_volume(spec, method="montecarlo", samples=200_000, seed=2)
        assert mc.stderr > 0
        assert abs(mc.volume - exact.volume) < 3 * mc.stderr

    def test_montecarlo_thread_count_does_not_change_result(self):
        spec = region_spec(P, "IR4")
        serial = region_volume(spec, method="montecarlo", samples=250_000, seed=6)
        threaded = region_volume(
            spec, method="montecarlo", samples=250_000, seed=6, threads=3
        )
        assert serial.volume == threaded.volume
        assert serial.stderr == threaded.stderr

    def test_montecarlo_memory_stays_bounded(self):
        # One 100,000-row shard of IR5: the candidates (3.1 MiB) and
        # membership_many's one float and two bool buffers peak near
        # 4.0 MiB.  A fresh product and sum per constraint peaked near
        # 4.7 MiB.
        spec = region_spec(P, "IR5")
        tracemalloc.start()
        try:
            region_volume(spec, method="montecarlo", samples=100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.4 * 2**20

    @pytest.mark.parametrize("tau", [0.0, 0.10])
    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_region_has_zero_volume(self, kind, tau):
        params = ModelParams(b=3.0, eps=0.58, n=3, tau=tau)
        spec = region_spec(params, kind)
        assert _enumerate_vertices(spec).shape == (0, spec.dim)
        exact = region_volume(spec, method="exact")
        assert exact.volume == 0.0
        assert exact.degenerate
        mc = region_volume(spec, method="montecarlo", samples=50_000, seed=0)
        assert mc.volume == 0.0

    def test_all_singular_subsets_give_no_vertices(self):
        """Parallel halfspaces only: every subset is singular, so the
        stacked solve gets an empty stack."""
        flat = tuple(
            Functional(f"F{i}", (scale, 0.0), 0.0, -1.0) for i, scale in enumerate((1.0, 2.0))
        )
        spec = dataclasses.replace(region_spec(P, "IR3"), orderings=(), functionals=flat)
        assert _enumerate_vertices(spec).shape == (0, 2)
        exact = region_volume(spec)
        assert exact.volume == 0.0
        assert exact.degenerate

    def test_report_json_and_validation(self):
        spec = region_spec(P, "IR4")
        rep = region_volume(spec, method="montecarlo", samples=10_000, seed=3)
        d = rep.to_json_dict()
        assert d["method"] == "montecarlo"
        assert d["samples"] == 10_000
        assert d["seed"] == 3
        with pytest.raises(DomainError):
            region_volume(spec, method="midpoint")
        with pytest.raises(DomainError):
            region_volume(spec, method="montecarlo", samples=0)


def _loop_vertices(spec, feas_tol=1e-9):
    """Reference vertex enumeration: one ``solve`` per dim-subset of the
    halfspace boundaries, skipping the singular ones."""
    a, b = _halfspaces(spec)
    dim = spec.dim
    seen = {}
    for idx in itertools.combinations(range(len(a)), dim):
        sub_a = a[list(idx)]
        sub_b = b[list(idx)]
        try:
            x = np.linalg.solve(sub_a, sub_b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.all(a @ x <= b + feas_tol):
            key = tuple(int(round(v * 1e10)) for v in x)
            seen.setdefault(key, x)
    if not seen:
        return np.empty((0, dim))
    return np.vstack(list(seen.values()))


def _loop_fan_volume(vertices):
    """Reference fan sum: one ``det`` per hull facet, added in facet order."""
    hull = ConvexHull(vertices)
    apex = vertices[hull.vertices[0]]
    total = 0.0
    for facet in hull.simplices:
        total += abs(np.linalg.det(vertices[facet] - apex))
    return total / math.factorial(vertices.shape[1])


def _reference_report(spec, vertices=None):
    """``region_volume(spec)`` with the reference loops patched in."""
    vertices = _loop_vertices(spec) if vertices is None else vertices
    with mock.patch.object(regions, "_enumerate_vertices", lambda s: vertices), \
            mock.patch.object(regions, "_fan_volume", _loop_fan_volume):
        return region_volume(spec)


#: 1000 seeded parameter points with the reference route's exact volume and
#: vertex count for every kind; rows are [b, eps, tau, (volume, count) per
#: kind in KINDS order].  The file pins this LAPACK/qhull build's bits.
#: Regenerate it (with the reference loops, never with the code under test):
#:     PYTHONPATH=src python tests/test_regions.py
VOLUME_SWEEP = Path(__file__).parent / "golden" / "exact-volume-sweep.json"


def _sweep_points(n=1000, seed=20261018):
    rng = np.random.default_rng(seed)
    return [
        (round(rng.uniform(0.5, 8.0), 3), round(rng.uniform(0.001, 3.0), 3),
         round(rng.uniform(0.0, 1.0), 3))
        for _ in range(n)
    ]


def _sweep_rows(exact):
    rows = []
    for b, eps, tau in _sweep_points():
        params = ModelParams(b=b, eps=eps, n=3, tau=tau)
        row = [b, eps, tau]
        for kind in KINDS:
            report = exact(region_spec(params, kind))
            row += [report.volume, report.vertex_count]
        rows.append(row)
    return rows


class TestVolumeMatchesReferenceLoops:
    """The stacked solve and the stacked fan determinants reproduce the
    per-subset and per-facet loops bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        b=st.floats(0.1, 10.0),
        eps=st.floats(0.0, 3.0, exclude_min=True),
        tau=st.floats(0.0, 1.0),
    )
    def test_vertices_and_volume_equal_the_loops(self, b, eps, tau):
        params = ModelParams(b=b, eps=eps, n=3, tau=tau)
        for kind in KINDS:
            spec = region_spec(params, kind)
            want = _loop_vertices(spec)
            got = _enumerate_vertices(spec)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert region_volume(spec) == _reference_report(spec, want)

    def test_subset_table_is_built_once_and_read_only(self):
        table = _subset_index(12, 3)
        assert _subset_index(12, 3) is table
        assert not table.flags.writeable
        assert table.tolist() == [list(c) for c in itertools.combinations(range(12), 3)]

    def test_seeded_sweep_equals_the_reference_volumes(self):
        golden = json.loads(VOLUME_SWEEP.read_text())
        assert _sweep_rows(region_volume) == golden


def _existence_flips(b, tau, kind, grid=48):
    """For each coupling in [0, 3] where region_exists flips at (b, tau),
    the two adjacent doubles around it: a grid, then bisection to one ulp."""
    def exists(eps):
        return region_exists(ModelParams(b=b, eps=eps, n=3, tau=tau), kind)

    values = np.linspace(0.0, 3.0, grid + 1).tolist()
    flips = []
    for lo, hi in zip(values, values[1:]):
        inside = exists(lo)
        if inside == exists(hi):
            continue
        while math.nextafter(lo, hi) < hi:
            mid = lo + (hi - lo) / 2
            if mid in (lo, hi):
                mid = math.nextafter(lo, hi)
            lo, hi = (mid, hi) if exists(mid) == inside else (lo, mid)
        flips.append((lo, hi))
    return flips


def _search_only(spec):
    """_enumerate_vertices with the emptiness certificate switched off."""
    with mock.patch.object(regions, "_certainly_empty", lambda spec, tol: False):
        return _enumerate_vertices(spec)


class TestEmptinessCertificate:
    """The certificate fires only where the reference loops find no vertex
    (sound), and on every empty polytope of the sweep and the atlas grid
    (strong)."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        b=st.floats(0.1, 50.0),
        eps=st.one_of(
            st.just(0.0), st.floats(-300.0, math.log10(3.0)).map(lambda e: 10.0**e)
        ),
        tau=st.one_of(st.sampled_from([0.0, 1e-12]), st.floats(0.0, 2.0)),
    )
    @example(b=3.0, eps=0.58, tau=0.0)
    @example(b=50.0, eps=5e-324, tau=1e-12)
    @example(b=0.1, eps=3.0, tau=2.0)
    def test_fires_only_where_the_loops_find_no_vertex(self, b, eps, tau):
        for kind in KINDS:
            points = [eps, *itertools.chain(*_existence_flips(b, tau, kind))]
            for value, feas_tol in itertools.product(points, (1e-9, 0.0)):
                spec = region_spec(ModelParams(b=b, eps=value, n=3, tau=tau), kind)
                if _certainly_empty(spec, feas_tol):
                    assert _loop_vertices(spec, feas_tol).shape == (0, spec.dim)
                    assert _enumerate_vertices(spec, feas_tol).shape == (0, spec.dim)

    def test_fires_on_every_empty_polytope_of_the_sweep(self):
        golden = json.loads(VOLUME_SWEEP.read_text())
        fired = 0
        for row in golden:
            params = ModelParams(b=row[0], eps=row[1], n=3, tau=row[2])
            for i, kind in enumerate(KINDS):
                empty = row[4 + 2 * i] == 0
                assert _certainly_empty(region_spec(params, kind), 1e-9) == empty
                fired += empty
        assert fired == 2499

    def test_fires_on_every_empty_polytope_of_the_atlas_grid(self):
        fired = 0
        for i, j in itertools.product(range(1, 11), repeat=2):
            params = ModelParams(b=3.0, eps=i / 10, n=3, tau=j / 10)
            for kind in KINDS:
                spec = region_spec(params, kind)
                empty = len(_search_only(spec)) == 0
                assert _certainly_empty(spec, 1e-9) == empty
                fired += empty
        assert fired == 177

    def test_needs_the_family_chain(self):
        """Without the chain no span bounds the coordinates, so a spec with
        other orderings is searched."""
        spec = region_spec(ModelParams(b=3.0, eps=0.58, n=3, tau=0.10), "IR4")
        assert _certainly_empty(spec, 1e-9)
        for orderings in ((), spec.orderings[:-1]):
            assert not _certainly_empty(dataclasses.replace(spec, orderings=orderings), 1e-9)

    def test_skips_the_search(self, monkeypatch):
        spec = region_spec(ModelParams(b=3.0, eps=0.58, n=3, tau=0.10), "IR4")
        monkeypatch.setattr(regions, "_halfspaces", None)
        assert _enumerate_vertices(spec).shape == (0, 3)


class TestSlabFreeSubsets:
    @pytest.mark.parametrize(
        "rows, dim, slabs, count", [(15, 2, 6, 99), (12, 3, 4, 180), (15, 4, 5, 985)]
    )
    def test_table_drops_exactly_the_subsets_holding_a_slab(self, rows, dim, slabs, count):
        table = _slab_free_index(rows, dim, slabs)
        assert _slab_free_index(rows, dim, slabs) is table
        assert not table.flags.writeable
        first = rows - 2 * slabs
        pairs = [{first + 2 * i, first + 2 * i + 1} for i in range(slabs)]
        want = [
            list(c) for c in itertools.combinations(range(rows), dim)
            if not any(pair <= set(c) for pair in pairs)
        ]
        assert table.tolist() == want
        assert len(want) == count

    @pytest.mark.parametrize("b", [0.1, 3.0, 50.0])
    @pytest.mark.parametrize("tau", [0.0, 1e-12, 0.58])
    @pytest.mark.parametrize("eps", [0.0, 5e-324, 1e-300, 1e-12, 1e-9])
    def test_thin_and_zero_width_slabs_equal_the_loops(self, b, eps, tau):
        """At eps = 0 every slab of IR3's double-pulse functionals has
        upper == lower, and near it the single-pulse slabs are thin: the
        subsets holding both rows of one are where skipping could move a
        vertex."""
        params = ModelParams(b=b, eps=eps, n=3, tau=tau)
        for kind in KINDS:
            spec = region_spec(params, kind)
            want = _loop_vertices(spec)
            assert np.array_equal(_enumerate_vertices(spec), want)
            assert region_volume(spec) == _reference_report(spec, want)


def _atlas_and_sweep_specs():
    """Every kind's spec at the atlas grid's 100 points (b = 3, eps and tau
    in 0.1 .. 1.0), then at the volume sweep's 1000."""
    points = [(3.0, i / 10, j / 10) for i, j in itertools.product(range(1, 11), repeat=2)]
    for b, eps, tau in points + _sweep_points():
        params = ModelParams(b=b, eps=eps, n=3, tau=tau)
        for kind in KINDS:
            yield region_spec(params, kind)


class _RecordingSolve:
    """Stands in for regions' _umath_linalg: runs the real solve gufunc and
    keeps each call's stacked systems and solutions."""

    def __init__(self):
        self.calls = []

    def solve(self, a, b):
        x = _umath_linalg.solve(a, b)
        self.calls.append((a, x))
        return x


def _fail(*args, **kwargs):
    raise AssertionError("vertex enumeration formed a determinant or called solve")


class TestOneFactorization:
    """Vertex enumeration factors each system once: one solve call per
    searched polytope, no determinant, singular systems dropped as the NaN
    rows the solve returns."""

    def test_unit_box_scaled_past_the_determinant_range(self):
        """Each 2x2 system is diag(1e-200, 1e-200): nonsingular, but its
        pivot product 1e-400 underflows, so a det != 0 rule dropped it."""
        box = tuple(
            Functional(f"F{i}", w, 0.0, 0.0, 1e-200)
            for i, w in enumerate(((1e-200, 0.0), (0.0, 1e-200)))
        )
        spec = RegionSpec(
            kind="BOX", dim=2, labels=("x", "y"), tau=1.0, orderings=(), functionals=box
        )
        assert spec.kind not in FAMILIES
        vertices = _enumerate_vertices(spec)
        assert sorted(map(tuple, vertices.tolist())) == [
            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)
        ]
        report = region_volume(spec)
        assert (report.volume, report.vertex_count, report.degenerate) == (1.0, 4, False)

    def test_one_solve_per_searched_polytope_and_no_determinant(self, monkeypatch):
        recorder = _RecordingSolve()
        monkeypatch.setattr(regions, "_umath_linalg", recorder)
        searched = 0
        with mock.patch.object(np.linalg, "det", _fail), \
                mock.patch.object(np.linalg, "solve", _fail), \
                np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in _atlas_and_sweep_specs():
                before = len(recorder.calls)
                _enumerate_vertices(spec)
                search = not _certainly_empty(spec, 1e-9)
                assert len(recorder.calls) - before == search
                searched += search
        assert searched == len(recorder.calls) == 3 * 1100 - 177 - 2499

    def test_kept_subsets_equal_a_determinant_then_solve_reference(self, monkeypatch):
        """The finite solutions are those of the subsets with det != 0 and a
        finite np.linalg.solve, in subset order and bit for bit."""
        recorder = _RecordingSolve()
        monkeypatch.setattr(regions, "_umath_linalg", recorder)
        for spec in _atlas_and_sweep_specs():
            if _certainly_empty(spec, 1e-9):
                continue
            _enumerate_vertices(spec)
            sub_a, x = recorder.calls.pop()
            x = x[..., 0]
            kept = np.flatnonzero(np.all(np.isfinite(x), axis=1))

            a, b = _halfspaces(spec)
            idx = _slab_free_index(len(a), spec.dim, len(spec.functionals))
            assert np.array_equal(sub_a, a[idx])
            ok = np.flatnonzero(np.linalg.det(a[idx]) != 0.0)
            want = np.linalg.solve(a[idx[ok]], b[idx[ok]][..., None])[..., 0]
            finite = np.all(np.isfinite(want), axis=1)
            assert np.array_equal(kept, ok[finite])
            assert np.array_equal(x[kept], want[finite])


@st.composite
def family_draws(draw):
    """A kind and parameters with n = 3 where its family is not empty, a
    seed, a sample count and an iteration budget.  The center value is
    affine in tau with intercept c, the single-pulse jump of phase 0, so tau
    is drawn inside the window where it lies in [h1, 1], away from its ends;
    families too thin to sample are passed over."""
    kind = draw(st.sampled_from(KINDS))
    b, eps = draw(st.floats(0.2, 8.0)), draw(st.floats(0.01, 0.95))
    unit = ModelParams(b=b, eps=eps, n=3, tau=1.0)
    c = jump_coeffs(unit, 1)[1]
    slope = FAMILIES[kind].center_value(unit, region_center(kind, 1.0)) - c
    lo, hi = max(trigger_threshold(unit, 1) - c, 0.0) / slope, (1.0 - c) / slope
    assume(hi > lo)
    params = ModelParams(b=b, eps=eps, n=3, tau=lo + draw(st.floats(0.05, 0.95)) * (hi - lo))
    assume(region_exists(params, kind))
    seed, n_samples = draw(st.integers(0, 2**16)), draw(st.sampled_from([40, 5, 1, 0]))
    try:
        sample_interior(params, kind, n_samples, seed=seed, max_draws=100_000)
    except RuntimeError:
        assume(False)
    return params, kind, seed, n_samples, draw(st.sampled_from([64, 2, 1]))


class TestOracle:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(family_draws())
    def test_equals_the_per_sample_oracle(self, drawn):
        # The report is repr-identical to the per-sample reference's, or
        # both raise the same error; budgets of 1 and 2 returns leave
        # samples without a cycle.
        params, kind, seed, n_samples, max_iter = drawn
        args = (params, kind, n_samples, seed)
        try:
            want = scalar_oracle(*args, max_iter=max_iter)
        except (ValueError, RuntimeError) as exc:
            with pytest.raises(type(exc)) as got:
                region_oracle(*args, max_iter=max_iter)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            return
        assert repr(region_oracle(*args, max_iter=max_iter)) == repr(want)

    def test_pulse_equivalence_is_read_off_the_table(self):
        # The 0.1 grid's 55 cycles differ in orbit period, in reception
        # count, or only in their pulses: every pair gets pulse_equivalent's
        # verdict on their signatures, and a list of cycles the verdict of
        # each against the first.
        table = phase_scan(P, step=0.1).table
        signatures = [pulse_signature(P, r) for r in _cycle_results(table, range(55))]
        verdicts = {}
        for i, j in itertools.product(range(55), repeat=2):
            verdicts[i, j] = pulse_equivalent(signatures[i], signatures[j])
            assert regions._pulse_equivalent(table, [i, j]) is verdicts[i, j]
        for cycles in ([0, 1, 2], [3, *range(55)], [7, 7]):
            want = all(verdicts[cycles[0], k] for k in cycles)
            assert regions._pulse_equivalent(table, cycles) is want
        # One more pulse in cycle 0's first reception (the table's first):
        # no cycle that was equivalent to it still is.
        k, who, mult, offset = table.receptions
        bumped = table._replace(receptions=(k, who, mult + (np.arange(len(k)) == 0), offset))
        alike = [j for j in range(1, 55) if verdicts[0, j]]
        assert alike and not any(regions._pulse_equivalent(bumped, [0, j]) for j in alike)

    @pytest.mark.parametrize(
        "run",
        [
            lambda n: region_oracle(P, "IR3", n_samples=n, seed=2),
            lambda n: projection_compare(P, n_samples=n, seed=2, step=0.25),
        ],
        ids=["region_oracle", "projection_compare"],
    )
    def test_no_state_is_built_per_sample(self, monkeypatch, run):
        # The starts are lockstep rows and the verdicts and seeded points
        # are read off the cycle table, so the NetworkStates built (those
        # of projection_compare's scan) do not grow with the samples.
        built, init = [], NetworkState.__init__

        def counted(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(NetworkState, "__init__", counted)
        counts = []
        for n in (10, 100):
            built.clear()
            run(n)
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_period4_family_verified_by_simulation(self):
        rep = region_oracle(P, "IR4", n_samples=12, seed=3)
        assert rep.ok
        assert rep.poincare_period_counts == {4: 12}
        assert rep.all_pulse_equivalent
        assert rep.center_poincare_period == 1
        assert rep.center_orbit_period == pytest.approx(
            3 * P.tau / 4, abs=1e-9
        )

    def test_locked_pair_family_verified_by_simulation(self):
        rep = region_oracle(P, "IR3", n_samples=8, seed=3)
        assert rep.ok
        assert rep.poincare_period_counts == {3: 8}
        assert rep.pair_synchronized is True
        # On the closed orbit the center is a section fixed point: every
        # return advances the two first-firing offsets by one slot of the
        # equally spaced triple, so one return closes the cycle.
        assert rep.center_poincare_period == 1
        assert rep.center_orbit_period == pytest.approx(
            2 * P.tau / 3, abs=1e-9
        )

    def test_period5_family_verified_by_simulation(self):
        rep = region_oracle(P, "IR5", n_samples=6, seed=3)
        assert rep.ok
        assert rep.poincare_period_counts == {5: 6}
        assert rep.center_poincare_period == 1
        assert rep.center_orbit_period == pytest.approx(
            3 * P.tau / 5, abs=1e-9
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_center_equals_the_scalar_detector(self, kind):
        # The center runs in the samples' batch; its report is what one
        # scalar detection of its cycle state gives, bit for bit.
        rep = region_oracle(P, kind, n_samples=5, seed=3)
        center = cycle_state(P, kind, region_center(kind, P.tau))
        want = scalar_detect(P, center, max_iter=64)
        assert rep.center_poincare_period == want.poincare_period
        assert repr(rep.center_orbit_period) == repr(want.orbit_period)

    def test_oracle_refuses_empty_region(self):
        params = ModelParams(b=3.0, eps=0.58, n=3, tau=0.10)
        with pytest.raises(DomainError):
            region_oracle(params, "IR4", n_samples=2)

    def test_report_json(self):
        rep = region_oracle(P, "IR4", n_samples=3, seed=1)
        d = rep.to_json_dict()
        assert d["ok"] is True
        assert d["expected_poincare_period"] == 4
        assert d["poincare_period_counts"] == {"4": 3}

    def test_expected_periods_table(self):
        assert {k: f.poincare_period for k, f in FAMILIES.items()} == {"IR3": 3, "IR4": 4, "IR5": 5}
        assert {k: f.period_delays for k, f in FAMILIES.items()} == {"IR3": 2, "IR4": 3, "IR5": 3}


class TestPhaseProjectionMembership:
    def test_member_projections_are_inside(self):
        pts = sample_interior(P, "IR4", 100, seed=2)
        for row in pts:
            theta1 = jump(P, float(row[0]), P.eps_hat)
            theta2 = float(row[1])
            assert ir4_projection_contains(P, theta1, theta2)

    def test_center_projection_is_inside(self):
        c = region_center("IR4", P.tau)
        assert ir4_projection_contains(
            P, jump(P, c[0], P.eps_hat), c[1]
        )

    def test_outside_points_rejected(self):
        assert not ir4_projection_contains(P, 0.9, 0.05)
        # theta2 exceeding the inverted sigma_1: ordering fails.
        assert not ir4_projection_contains(P, jump(P, 0.1, P.eps_hat), 0.3)
        assert not ir4_projection_contains(P, 0.05, 0.01)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(0.2, 8.0), st.floats(0.0, 0.95), st.floats(0.01, 1.2), st.integers(0, 2**16)
    )
    def test_phase_plane_is_jump_point_by_point(self, b, eps, tau, seed):
        # The helper on coordinate columns equals jump and sigma2 point by
        # point, and on one point's coordinates too.
        params = ModelParams(b=b, eps=eps, n=3, tau=tau)
        sigmas = _ordering_simplex_sample(np.random.default_rng(seed), "IR4", tau, 50)
        theta1, theta2 = regions._ir4_phase_plane(params, sigmas.T)
        want = [(jump(params, s1, params.eps_hat), s2) for s1, s2, _ in sigmas.tolist()]
        assert list(zip(theta1.tolist(), theta2.tolist())) == want
        for point, expected in zip(sigmas.tolist(), want):
            assert regions._ir4_phase_plane(params, tuple(point)) == expected


if __name__ == "__main__":
    rows = _sweep_rows(_reference_report)
    VOLUME_SWEEP.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {VOLUME_SWEEP} ({len(rows)} points)")

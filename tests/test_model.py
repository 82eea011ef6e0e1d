"""Unit tests for the phase model: closed forms vs. the mpmath oracle,
frozen reference values, and the algebraic identities the rest of the
package leans on (affinity, semigroup, inverse pair, thresholds)."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isochron.lockstep import _coeff_table
from isochron.model import (
    _B_MAX,
    DomainError,
    ModelParams,
    jump,
    jump_coeffs,
    jump_m,
    response,
    rise,
    rise_inv,
    trigger_threshold,
)
from oracle import o_jump, o_response, o_rise, o_rise_inv, o_trigger

# Reference parameter point used throughout: b=3, eps=0.58, n=3 (eps_hat=0.29).
P = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)

# Frozen oracle outputs (mpmath, 50 digits, rounded to float).
RISE_HALF = 0.7851467236712656          # rise(0.5)
RISE_INV_HALF = 0.18242552380635635     # rise_inv(0.5)
JUMP_029 = 0.7648723076637269           # jump(0.29, 0.29)
JUMP_030 = 0.7887414161989698           # jump(0.30, 0.29)
JUMP0_M2 = 0.24612058028951905          # jump(0, 2*0.29)
RESPONSE_HALF = 0.7661235869038251      # response(0.5, 0.29)
COEFF_A1 = 2.386910853524277            # e^{b*eps_hat}
COEFF_C1 = 0.07266816014168674          # expm1(b*eps_hat)/expm1(b)
COEFF_A2 = 5.697343422671991
COEFF_C2 = 0.24612058028951905
TRIGGER_1 = 0.38850711097530377         # root of jump(x, 0.29) = 1
TRIGGER_2 = 0.13232121776449274         # root of jump(x, 0.58) = 1

#: Bound on |jump - oracle| / max(1, |oracle|) for single and composed jumps,
#: about twice the largest error measured over random draws (see CHANGES.md).
JUMP_BOUND = 2.5e-15


class TestFrozenValues:
    def test_rise_at_half(self):
        assert math.isclose(rise(P, 0.5), RISE_HALF, rel_tol=1e-14)

    def test_rise_inv_at_half(self):
        assert math.isclose(rise_inv(P, 0.5), RISE_INV_HALF, rel_tol=1e-14)

    def test_jump_reference_points(self):
        assert math.isclose(jump(P, 0.29, 0.29), JUMP_029, rel_tol=1e-14)
        assert math.isclose(jump(P, 0.30, 0.29), JUMP_030, rel_tol=1e-14)
        assert math.isclose(jump_m(P, 0.0, 2), JUMP0_M2, rel_tol=1e-14)

    def test_response_at_half(self):
        assert math.isclose(response(P, 0.5, 0.29), RESPONSE_HALF, rel_tol=1e-13)

    def test_jump_coeffs(self):
        a1, c1 = jump_coeffs(P, 1)
        a2, c2 = jump_coeffs(P, 2)
        assert math.isclose(a1, COEFF_A1, rel_tol=1e-15)
        assert math.isclose(c1, COEFF_C1, rel_tol=1e-15)
        assert math.isclose(a2, COEFF_A2, rel_tol=1e-15)
        assert math.isclose(c2, COEFF_C2, rel_tol=1e-15)

    def test_trigger_thresholds(self):
        assert math.isclose(trigger_threshold(P, 1), TRIGGER_1, rel_tol=1e-14)
        assert math.isclose(trigger_threshold(P, 2), TRIGGER_2, rel_tol=1e-14)


class TestAgainstOracle:
    """Closed forms vs. the root-finding/composition oracle on a grid."""

    thetas = [0.0, 0.01, 0.1, 0.29, 0.5, 0.75, 0.9, 0.999, 1.0]
    bs = [0.5, 1.0, 3.0, 7.5]

    @pytest.mark.parametrize("b", bs)
    def test_rise_pair(self, b):
        p = ModelParams(b=b, eps=0.3)
        for th in self.thetas:
            assert math.isclose(rise(p, th), float(o_rise(b, th)), rel_tol=1e-13, abs_tol=1e-15)
            assert math.isclose(
                rise_inv(p, th), float(o_rise_inv(b, th)), rel_tol=1e-13, abs_tol=1e-15
            )

    @pytest.mark.parametrize("b", bs)
    def test_jump_and_response(self, b):
        p = ModelParams(b=b, eps=0.3)
        for th in self.thetas:
            for d in (0.0, 0.05, 0.15, 0.29):
                assert math.isclose(
                    jump(p, th, d), float(o_jump(b, th, d)), rel_tol=1e-13, abs_tol=1e-15
                )
                assert math.isclose(
                    response(p, th, d), float(o_response(b, th, d)), rel_tol=1e-12, abs_tol=1e-14
                )

    @pytest.mark.parametrize("b,eps", [(3.0, 0.58), (1.0, 0.2), (5.0, 0.9), (0.5, 0.44)])
    def test_trigger_vs_rootfinding(self, b, eps):
        p = ModelParams(b=b, eps=eps, n=3)
        for m in (1, 2):
            assert math.isclose(
                trigger_threshold(p, m), float(o_trigger(b, p.eps_hat, m)), rel_tol=1e-13
            )


    @pytest.mark.parametrize("eps", [1.2, 2.5])
    def test_trigger_goes_negative_past_full_coupling(self, eps):
        p = ModelParams(b=3.0, eps=eps, n=3)
        for m in (1, 2):
            if m * p.eps_hat <= 1.0:
                continue
            value = trigger_threshold(p, m)
            assert value < 0.0
            assert math.isclose(value, float(o_trigger(3.0, p.eps_hat, m)), rel_tol=1e-13)

    def test_trigger_equals_rise_inv_where_defined(self):
        for b in self.bs:
            for eps in np.linspace(0.0, 1.0, 41):
                p = ModelParams(b=b, eps=float(eps), n=3)
                for m in (1, 2):
                    x = 1.0 - m * p.eps_hat
                    if x >= 0.0:
                        assert trigger_threshold(p, m) == rise_inv(p, x)


class TestIdentities:
    """Seeded property checks of the structure the dynamics relies on."""

    def test_inverse_pair(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            b = rng.uniform(0.2, 8.0)
            p = ModelParams(b=b, eps=0.3)
            th = rng.uniform(0.0, 1.0)
            assert abs(rise_inv(p, rise(p, th)) - th) <= 1e-13
            assert abs(rise(p, rise_inv(p, th)) - th) <= 1e-13

    def test_jump_is_affine(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            p = ModelParams(b=rng.uniform(0.2, 8.0), eps=rng.uniform(0.0, 1.0))
            d = rng.uniform(0.0, 0.5)
            t1, t2, lam = rng.uniform(0.0, 1.0, size=3)
            mix = lam * t1 + (1 - lam) * t2
            lhs = jump(p, mix, d)
            rhs = lam * jump(p, t1, d) + (1 - lam) * jump(p, t2, d)
            assert abs(lhs - rhs) <= 1e-12

    def test_jump_semigroup(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            p = ModelParams(b=rng.uniform(0.2, 8.0), eps=rng.uniform(0.0, 1.0))
            th = rng.uniform(0.0, 1.0)
            d1, d2 = rng.uniform(0.0, 0.4, size=2)
            two_step = jump(p, jump(p, th, d1), d2)
            one_step = jump(p, th, d1 + d2)
            assert abs(two_step - one_step) <= 1e-12 * max(1.0, one_step)

    def test_jump_monotone(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            p = ModelParams(b=rng.uniform(0.2, 8.0), eps=rng.uniform(0.0, 1.0))
            th = sorted(rng.uniform(0.0, 1.0, size=2))
            d = sorted(rng.uniform(0.0, 0.5, size=2))
            assert jump(p, th[0], d[1]) <= jump(p, th[1], d[1])
            assert jump(p, th[1], d[0]) <= jump(p, th[1], d[1])

    def test_threshold_characterizes_firing(self):
        rng = np.random.default_rng(45)
        p = P
        for m in (1, 2):
            h = trigger_threshold(p, m)
            for _ in range(200):
                th = rng.uniform(0.0, 1.0)
                fires = jump_m(p, th, m) >= 1.0
                assert fires == (th >= h) or abs(th - h) < 1e-12

    def test_jump_m_matches_coeff_form(self):
        rng = np.random.default_rng(46)
        for m in (1, 2):
            a, c = jump_coeffs(P, m)
            for _ in range(100):
                th = rng.uniform(0.0, 1.0)
                assert math.isclose(jump_m(P, th, m), a * th + c, rel_tol=1e-15)

    def test_response_positive_for_positive_pulse(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            p = ModelParams(b=rng.uniform(0.2, 8.0), eps=rng.uniform(0.01, 1.0))
            th = rng.uniform(0.0, 1.0)
            assert response(p, th, p.eps_hat) > 0.0
        assert response(P, 0.5, 0.0) == 0.0


def _scaled_error(value: float, reference: mp.mpf) -> float:
    return float(abs(mp.mpf(value) - reference) / max(1, abs(reference)))


_steepness = st.floats(0.2, 8.0)
_theta = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53])
)
_strength = st.floats(0.0, 0.5)


class TestJumpComposition:
    """Pulse strengths compose additively, judged by the 50-digit oracle:
    both routes to the same total strength stay within JUMP_BOUND of it."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_steepness, _theta, _strength, _strength)
    def test_two_jumps_equal_one_of_the_summed_strength(self, b, theta, d1, d2):
        p = ModelParams(b=b, eps=0.3)
        reference = o_jump(b, theta, mp.mpf(d1) + mp.mpf(d2))
        assert _scaled_error(jump(p, jump(p, theta, d1), d2), reference) <= JUMP_BOUND
        assert _scaled_error(jump(p, theta, d1 + d2), reference) <= JUMP_BOUND

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_steepness, st.floats(0.0, 1.0), st.integers(2, 4), _theta)
    def test_double_reception_equals_two_single_ones(self, b, eps, n, theta):
        p = ModelParams(b=b, eps=eps, n=n)
        reference = o_jump(b, theta, 2 * mp.mpf(p.eps_hat))
        assert _scaled_error(jump_m(p, theta, 2), reference) <= JUMP_BOUND
        assert _scaled_error(jump_m(p, jump_m(p, theta, 1), 1), reference) <= JUMP_BOUND


class TestJumpCoeffs:
    """jump_coeffs, jump_m and jump round the same way, to the last bit."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        _steepness, st.floats(0.0, 1.0), st.integers(2, 5), _theta, st.integers(1, 6)
    )
    def test_coefficients_reproduce_jump_m_bit_for_bit(self, b, eps, n, theta, m):
        p = ModelParams(b=b, eps=eps, n=n)
        a, c = jump_coeffs(p, m)
        value = jump_m(p, theta, m)
        assert (a * theta + c).hex() == value.hex()
        assert jump(p, theta, m * p.eps_hat).hex() == value.hex()

    def test_multiplicity_three_regression(self):
        # (b*m)*eps_hat and b*(m*eps_hat) round differently here: the
        # coefficients once took the first and jump_m the second.
        p = ModelParams(b=0.7, eps=0.9, n=3)
        assert (0.7 * 3) * p.eps_hat != 0.7 * (3 * p.eps_hat)
        a, c = jump_coeffs(p, 3)
        assert a * 0.5 + c == jump_m(p, 0.5, 3)


def _edge(b: float) -> float:
    """The largest strength delta with b * delta <= _B_MAX."""
    delta = _B_MAX / b
    while b * delta > _B_MAX:
        delta = math.nextafter(delta, 0.0)
    while b * math.nextafter(delta, math.inf) <= _B_MAX:
        delta = math.nextafter(delta, math.inf)
    return delta


class TestCoefficientsPastTheExponentRange:
    """Past b * delta = ln(DBL_MAX), exp(b * delta) overflows.  The strength
    delta then exceeds 1, so the jump passes phase 1 from any phase, and
    the coefficients are (0, 1)."""

    @pytest.mark.parametrize("b", [3.0, 50.0, 700.0, _B_MAX])
    def test_both_sides_of_the_edge(self, b):
        below = _edge(b)
        above = math.nextafter(below, math.inf)
        # One ulp below: the bits of exp and expm1, close to the oracle's.
        x = b * below
        a, c = jump_coeffs(ModelParams(b=b, eps=below, n=2), 1)
        assert (a, c) == (math.exp(x), math.expm1(x) / math.expm1(b))
        # (compared in mp: the exact exponent may put the oracle past DBL_MAX)
        assert abs(mp.mpf(a) / mp.exp(mp.mpf(b) * below) - 1) < 1e-12
        assert abs(mp.mpf(c) / (mp.expm1(mp.mpf(b) * below) / mp.expm1(b)) - 1) < 1e-12
        # One ulp above: exp overflows, and the oracle's jump passes phase 1
        # from phase 0, so the reception fires from any phase.
        with pytest.raises(OverflowError):
            math.exp(b * above)
        past = ModelParams(b=b, eps=above, n=2)
        assert jump_coeffs(past, 1) == (0.0, 1.0)
        assert o_jump(b, 0.0, above) > 1
        for theta in (0.0, 0.5, math.nextafter(1.0, 0.0)):
            assert min(1.0, jump_m(past, theta, 1)) == 1.0
            assert min(1.0, jump(past, theta, above)) == 1.0

    def test_multiplicities_past_the_edge(self):
        # eps_hat = 150: one pulse stays in range, two or more pass it.
        p = ModelParams(b=3.0, eps=300.0)
        a, c = _coeff_table(p, 4)
        assert a.tolist() == [1.0, math.exp(450.0), 0.0, 0.0, 0.0]
        assert c.tolist() == [0.0, math.expm1(450.0) / math.expm1(3.0), 1.0, 1.0, 1.0]
        assert [jump_coeffs(p, m) for m in (2, 3, 4)] == [(0.0, 1.0)] * 3
        assert jump_coeffs(ModelParams(b=3.0, eps=1e308), 1) == (0.0, 1.0)

    def test_table_holds_the_coefficients_at_every_multiplicity(self):
        a, c = _coeff_table(P, 6)
        assert list(zip(a.tolist(), c.tolist())) == [
            (1.0, 0.0), *(jump_coeffs(P, m) for m in range(1, 7))
        ]


class TestValidation:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            ModelParams(b=0.0, eps=0.3)
        with pytest.raises(DomainError):
            ModelParams(b=-1.0, eps=0.3)
        with pytest.raises(DomainError):
            ModelParams(b=3.0, eps=-0.1)
        with pytest.raises(DomainError):
            ModelParams(b=3.0, eps=0.3, n=1)
        with pytest.raises(DomainError):
            ModelParams(b=3.0, eps=0.3, tau=-0.5)

    def test_steepness_bound_is_where_expm1_overflows(self):
        """b up to ln(DBL_MAX) keeps its coefficients; one ulp past it,
        expm1(b) overflows and the parameters are refused naming the bound."""
        assert _B_MAX == pytest.approx(709.78, abs=0.01)
        assert math.isfinite(math.expm1(_B_MAX))
        for b in (700.0, _B_MAX):
            p = ModelParams(b=b, eps=0.5)
            assert jump_coeffs(p, 1) == (math.exp(b * 0.25), math.expm1(b * 0.25) / math.expm1(b))
        for b in (math.nextafter(_B_MAX, math.inf), 710.0, 800.0, 1e300):
            with pytest.raises(OverflowError):
                math.expm1(b)
            with pytest.raises(DomainError, match=r"b must be at most 709\.78\d*, where expm1"):
                ModelParams(b=b, eps=0.5)

    def test_eps_hat(self):
        assert ModelParams(b=3.0, eps=0.58, n=3).eps_hat == pytest.approx(0.29)
        assert ModelParams(b=3.0, eps=0.9, n=10).eps_hat == pytest.approx(0.1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rise(P, -0.01)
        with pytest.raises(DomainError):
            rise_inv(P, -0.01)
        with pytest.raises(DomainError):
            jump(P, -0.2, 0.1)
        with pytest.raises(DomainError):
            jump(P, 0.2, -0.1)
        with pytest.raises(DomainError):
            jump_m(P, 0.2, 0)

"""Acceptance checks for the package's headline guarantees.

Each test verifies one end-to-end property at its stated tolerance and
prints exactly one PASS/FAIL line (emitted outside pytest's capture so it
is always visible in the run log) before asserting.  Together they
cover: the section map intertwining the coordinate return map, the order
and fixed structure of that return map, the canonical orbit periods, the
equivalence of existence tests and center membership across parameter
space, agreement of the exact and Monte Carlo volume routes, full
periodicity of the reference phase portrait, one-return convergence near
the periodic family, pulse-pattern classification of the three families,
and collapse to synchrony outside the existence region.
"""

import math
import time

import numpy as np

from isochron import (
    ModelParams,
    cycle_state,
    detect_periodicity,
    g_algebra_deviation,
    init_engine,
    intertwining_distances,
    membership,
    pulse_equivalent,
    pulse_signature,
    phase_scan,
    region_center,
    region_exists,
    region_spec,
    region_volume,
    s_embed,
    sample_interior,
    stability_probe,
)

P = ModelParams(b=3.0, eps=0.58, n=3, tau=0.58)
TAU = P.tau


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


def test_1_section_map_intertwines_coordinate_map(capsys):
    """One simulated section return from the canonical state of sigma lands
    on the canonical state of g(sigma), for 1000 interior points."""
    t0 = time.perf_counter()
    worst = max(intertwining_distances(P, sample_interior(P, "IR4", 1000, seed=11)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(
        capsys,
        "1 section-map intertwining",
        ok,
        f"max deviation {worst:.3e} over 1000 samples in {elapsed:.2f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_2_coordinate_map_has_period_four(capsys):
    """g composed four times is the identity; the center is fixed; the
    line center + t(0,1,1) is fixed by g squared."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    points = rng.uniform(0.0, TAU, size=(100_000, 3))
    worst = g_algebra_deviation(TAU, points, rng.uniform(-TAU / 2, TAU / 2, size=100))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        capsys,
        "2 return-map period four",
        ok,
        f"max deviation {worst:.3e} over 100000 points in {elapsed:.2f}s",
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_3_canonical_orbit_periods(capsys):
    """The center is a section fixed point with orbit period 3*tau/4; the
    g^2-invariant line carries section period 2 with orbit period 3*tau/2;
    generic interior points have section period 4 with orbit period
    3*tau."""
    spec = region_spec(P, "IR4")
    failures = []

    center = region_center("IR4", TAU)
    res = detect_periodicity(P, s_embed(P, "IR4", center))
    if res.poincare_period != 1 or abs(res.orbit_period - 3 * TAU / 4) > 1e-9:
        failures.append("center")

    for t in (-TAU / 16, -TAU / 10, TAU / 16, TAU / 10, TAU / 12):
        sigma2 = TAU / 4 + t
        point = (TAU / 2, sigma2, TAU / 2 + sigma2)
        assert membership(spec, point)
        res = detect_periodicity(P, s_embed(P, "IR4", point))
        if (
            res.poincare_period != 2
            or abs(res.orbit_period - 3 * TAU / 2) > 1e-9
        ):
            failures.append(f"line t={t:+.4f}")

    for row in sample_interior(P, "IR4", 100, seed=3):
        sigma = tuple(float(v) for v in row)
        res = detect_periodicity(P, s_embed(P, "IR4", sigma))
        if res.poincare_period != 4 or abs(res.orbit_period - 3 * TAU) > 1e-9:
            failures.append(f"generic {sigma}")

    ok = not failures
    _report(
        capsys,
        "3 canonical orbit periods",
        ok,
        "center 1x(3tau/4), line 2x(3tau/2), 100 generic 4x(3tau)"
        if ok
        else f"failed at {failures[:3]}",
    )
    assert not failures


def test_4_existence_equals_center_membership(capsys):
    """On a 100x100 grid over (eps, tau) in (0,1]^2, the closed-form
    existence test agrees with membership of the region's center for all
    three families, with zero mismatches."""
    mismatches = 0
    for i in range(1, 101):
        for j in range(1, 101):
            params = ModelParams(b=3.0, eps=i / 100, n=3, tau=j / 100)
            for kind in ("IR3", "IR4", "IR5"):
                spec = region_spec(params, kind)
                center_in = membership(spec, region_center(kind, params.tau))
                if region_exists(params, kind) != center_in:
                    mismatches += 1
    ok = mismatches == 0
    _report(
        capsys,
        "4 existence maps",
        ok,
        f"{mismatches} mismatches over 10000 cells x 3 families",
    )
    assert mismatches == 0


def test_5_volume_routes_agree(capsys):
    """At 20 random parameter points inside the period-4 existence region
    the exact polytope volume and a million-sample Monte Carlo estimate
    agree within 3 binomial standard errors; outside, the volume is 0."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    inside: list[ModelParams] = []
    outside: list[ModelParams] = []
    while len(inside) < 20 or len(outside) < 3:
        eps, tau = rng.uniform(0.0, 1.0, size=2)
        if eps == 0.0 or tau == 0.0:
            continue
        params = ModelParams(b=3.0, eps=float(eps), n=3, tau=float(tau))
        if region_exists(params, "IR4"):
            if len(inside) < 20:
                inside.append(params)
        elif len(outside) < 3:
            outside.append(params)

    # Judge each estimate against the binomial standard error at the TRUE
    # hit probability (known from the exact route): the plug-in stderr
    # degenerates to zero when a sliver-thin region draws no hits at all.
    worst_ratio = 0.0
    for k, params in enumerate(inside):
        spec = region_spec(params, "IR4")
        exact = region_volume(spec, method="exact")
        mc = region_volume(spec, method="montecarlo", samples=1_000_000, seed=k)
        simplex = spec.tau**spec.dim / math.factorial(spec.dim)
        p_true = exact.volume / simplex
        se_true = simplex * math.sqrt(p_true * (1.0 - p_true) / 1_000_000)
        assert se_true > 0.0
        worst_ratio = max(worst_ratio, abs(exact.volume - mc.volume) / se_true)

    vanish = all(
        region_volume(region_spec(params, "IR4"), method="exact").volume == 0.0
        for params in outside
    )
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 3.0 and vanish and elapsed < 60.0
    _report(
        capsys,
        "5 volume cross-check",
        ok,
        f"worst |exact-mc| = {worst_ratio:.2f} stderr over 20 points, "
        f"outside volume {'0' if vanish else 'nonzero'}, {elapsed:.1f}s",
    )
    assert worst_ratio <= 3.0
    assert vanish
    assert elapsed < 60.0


def test_6_reference_phase_portrait_scan(capsys):
    """A 0.01-step scan of the initial-phase square terminates with every
    orbit periodic within 10^4 returns, minimal section periods within
    {1,...,5}, nonempty clusters for periods 3, 4, and 5, and the origin a
    fixed point."""
    t0 = time.perf_counter()
    result = phase_scan(P, step=0.01, max_iter=10_000, workers=4)
    elapsed = time.perf_counter() - t0

    census: dict[int, int] = {}
    not_periodic = 0
    for rec in result.records:
        if rec.poincare_period is None:
            not_periodic += 1
        else:
            census[rec.poincare_period] = census.get(rec.poincare_period, 0) + 1
    origin = next(
        rec for rec in result.records if rec.theta1 == 0.0 and rec.theta2 == 0.0
    )
    ok = (
        len(result.records) == 10_000
        and not_periodic == 0
        and set(census) <= {1, 2, 3, 4, 5}
        and all(census.get(p, 0) > 0 for p in (3, 4, 5))
        and origin.poincare_period == 1
        and origin.transient_iters == 0
        and elapsed < 300.0
    )
    _report(
        capsys,
        "6 phase-portrait scan",
        ok,
        f"10000 cells, {not_periodic} unresolved, periods "
        f"{dict(sorted(census.items()))}, {elapsed:.1f}s",
    )
    assert len(result.records) == 10_000
    assert not_periodic == 0
    assert set(census) <= {1, 2, 3, 4, 5}
    assert all(census.get(p, 0) > 0 for p in (3, 4, 5))
    assert origin.poincare_period == 1 and origin.transient_iters == 0
    assert elapsed < 300.0


def test_7_one_return_convergence(capsys):
    """100 perturbed starts (|dtheta|, |dsigma| <= 1e-4, staying inside the
    region) each land back on the canonical state of the advanced
    coordinates after a single return, within 1e-9."""
    pts = sample_interior(P, "IR4", 10, seed=21)
    total_run = 0
    counterexamples = 0
    worst = 0.0
    for k, row in enumerate(pts):
        sigma = tuple(float(v) for v in row)
        rep = stability_probe(
            P,
            sigma,
            dtheta_max=1e-4,
            dsigma_max=1e-4,
            n_trials=10,
            seed=100 + k,
            tol=1e-9,
        )
        total_run += rep.n_run
        worst = max(worst, rep.max_distance)
        if not rep.ok:
            counterexamples += 1
    ok = counterexamples == 0 and total_run == 100 and worst <= 1e-9
    _report(
        capsys,
        "7 one-return stability",
        ok,
        f"{total_run} trials, {counterexamples} counterexamples, "
        f"max distance {worst:.3e}",
    )
    assert counterexamples == 0
    assert total_run == 100
    assert worst <= 1e-9


def test_8_pulse_patterns_classify_families(capsys):
    """Pulse signatures of 100 period-4 orbits are pairwise equivalent;
    the period-3 and period-5 families are not equivalent to them; and
    period-3 orbits keep the locked pair at equal phase through every
    event."""
    sigs = []
    for row in sample_interior(P, "IR4", 100, seed=8):
        sigma = tuple(float(v) for v in row)
        res = detect_periodicity(P, s_embed(P, "IR4", sigma))
        sigs.append(pulse_signature(P, res))
    pairwise = all(
        pulse_equivalent(a, b)
        for i, a in enumerate(sigs)
        for b in sigs[i + 1 :]
    )

    row3 = sample_interior(P, "IR3", 1, seed=8)[0]
    res3 = detect_periodicity(
        P, cycle_state(P, "IR3", (float(row3[0]), float(row3[1])))
    )
    row5 = sample_interior(P, "IR5", 1, seed=8)[0]
    res5 = detect_periodicity(
        P, cycle_state(P, "IR5", tuple(float(v) for v in row5))
    )
    cross3 = pulse_equivalent(pulse_signature(P, res3), sigs[0])
    cross5 = pulse_equivalent(pulse_signature(P, res5), sigs[0])

    worst_gap = 0.0
    for row in sample_interior(P, "IR3", 20, seed=9):
        sigma = (float(row[0]), float(row[1]))
        engine = init_engine(P, cycle_state(P, "IR3", sigma))
        while engine.clock < 2 * TAU:
            engine.step()
            state = engine.state()
            worst_gap = max(worst_gap, abs(state.phases[0] - state.phases[1]))

    ok = pairwise and not cross3 and not cross5 and worst_gap <= 1e-12
    _report(
        capsys,
        "8 pulse equivalence",
        ok,
        f"100 period-4 orbits pairwise equivalent: {pairwise}; "
        f"period-3/5 distinct: {not cross3}/{not cross5}; "
        f"max pair gap {worst_gap:.1e}",
    )
    assert pairwise
    assert not cross3 and not cross5
    assert worst_gap <= 1e-12


def test_9_outside_parameters_collapse_to_sync(capsys):
    """Just outside the existence region the canonical center state falls
    onto a stable single-return attractor within 10^3 returns."""
    params = ModelParams(b=3.0, eps=0.30, n=3, tau=0.30)
    assert not region_exists(params, "IR4")
    state = s_embed(params, "IR4", region_center("IR4", params.tau))
    res = detect_periodicity(params, state, max_iter=1000)
    ok = (
        res.poincare_period == 1
        and res.transient_iters <= 1000
    )
    _report(
        capsys,
        "9 outside-region collapse",
        ok,
        f"section period {res.poincare_period} after transient "
        f"{res.transient_iters}",
    )
    assert res.poincare_period == 1
    assert res.transient_iters <= 1000

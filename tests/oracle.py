"""Independent high-precision reference implementation for the phase model.

Everything here is computed at 50 decimal digits with mpmath, and wherever
the library uses a closed form, this oracle deliberately takes a different
route: the inverse rise profile and the pulse jump are obtained by
root-finding / composition against the *definition* (add delta to the rise
value, invert numerically), and thresholds by solving jump(theta, m) = 1.
Tests compare the library's closed forms against these values, so an
algebra slip in either side shows up as a mismatch.

``o_section_return`` is a 50-digit event loop for one section return, the
arbiter for the engine's rounding: chained, its returns give the exact
orbit that the engine's double-precision returns approximate.

``scalar_detect`` is the float reference for cycle detection: the
library's detector runs many starts in lockstep on arrays and builds their
cycles together, while this one runs each return on its own scalar engine
and builds its one cycle return by return (``cycle_result``).

``scan_reference`` is the reference for the initial-phase scan: one
``PeriodicityResult`` and one ``PulseSignature`` per cell, interned by
``pulse_equivalent``, where the library's scan works on cycle columns.

``scalar_oracle`` is the per-sample region oracle: one ``cycle_state``,
``PeriodicityResult`` and ``PulseSignature`` per sample, where
``region_oracle`` writes its starts as rows and reads its verdicts off the
cycle table.

``scalar_overlay`` is the analytic-versus-numeric overlay cycle by cycle:
every grid cell is detected (not only the triangle theta1 <= theta2),
and each period-4 result is matched against the family state by state,
with its own swap of the free oscillators (``swap_free``), where
``projection_compare`` reads the family points off the cycle table's
rows.

``PaddedHistory`` is the reference for detection's history
(``lockstep._History``): every logged state as plain Python values, read
out padded row by row, where the library stores FTD entries and
deliveries flat with offsets.
"""

from __future__ import annotations

import bisect
import math
from itertools import chain

import mpmath as mp
import numpy as np

from isochron import (
    DEFAULT_MATCH_TOL,
    DEFAULT_SCAN_MAX_ITER,
    FAMILIES,
    DomainError,
    Engine,
    NotPeriodic,
    OracleReport,
    PeriodicityResult,
    ProjectionCompareReport,
    ScanRecord,
    cycle_state,
    detect_periodicity_many,
    eq_init_state,
    g_map,
    ir4_projection_contains,
    membership,
    network_state,
    phase_projection,
    pulse_equivalent,
    pulse_signature,
    region_center,
    region_spec,
    require_section_state,
    s_embed,
    sample_interior,
    states_match,
)
from isochron.regions import _require_nonempty
from isochron.sweep import _grid_values

mp.mp.dps = 50


def o_rise(b: float, theta) -> mp.mpf:
    """Concave rise profile: log1p(expm1(b)*theta)/b, evaluated in mp."""
    b = mp.mpf(b)
    return mp.log1p(mp.expm1(b) * mp.mpf(theta)) / b


def o_rise_inv(b: float, x) -> mp.mpf:
    """Inverse of o_rise by bracketed root-finding (no closed form used)."""
    b = mp.mpf(b)
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(0)
    hi = mp.mpf(1)
    while o_rise(b, hi) < x:
        hi *= 2
    return mp.findroot(lambda th: o_rise(b, th) - x, (mp.mpf(0), hi), solver="anderson")


def o_jump(b: float, theta, delta) -> mp.mpf:
    """Definitional pulse jump: invert the rise, add delta, flow back.

    jump(theta, delta) = rise^{-1}(rise(theta) + delta), unclamped.
    """
    return o_rise_inv(b, o_rise(b, theta) + mp.mpf(delta))


def o_response(b: float, theta, delta) -> mp.mpf:
    """Phase advance caused by a pulse: jump minus identity."""
    return o_jump(b, theta, delta) - mp.mpf(theta)


def o_trigger(b: float, eps_hat, m: int) -> mp.mpf:
    """Smallest phase from which m simultaneous pulses reach threshold:
    the root of jump(theta, m*eps_hat) = 1, bracketed on [0, 1]."""
    d = m * mp.mpf(eps_hat)
    return mp.findroot(
        lambda th: o_jump(b, th, d) - 1, (mp.mpf(0), mp.mpf(1)), solver="anderson"
    )


def _o_jump_closed(b, theta, delta) -> mp.mpf:
    """jump(theta, delta) by its definition, rise then inverse rise, with
    the inverse in closed form so that an event loop stays fast."""
    return mp.expm1(b * (o_rise(b, theta) + delta)) / mp.expm1(b)


def o_section_return(b: float, eps: float, tau: float, phases, ftds, tol: float = 1e-12):
    """One return to the section "the last oscillator just fired", at 50 digits.

    An event loop written apart from the library's engine but with its
    semantics: at each timestamp every pulse due within tol is received
    first, multiplicities adding per receiver, and then every oscillator
    within tol of threshold fires; rounds repeat while fires make pulses
    due now.  It starts at clock 0, like an engine restarted at each
    return.  Returns (phases, ftds, elapsed) as mpf values, ready to feed
    back in for the next return of a 50-digit chain.
    """
    n = len(phases)
    b, tau, eps_hat, tol = mp.mpf(b), mp.mpf(tau), mp.mpf(eps) / (n - 1), mp.mpf(tol)
    theta = [mp.mpf(p) for p in phases]
    # (deliver_at, sender), one per pulse in flight, kept sorted.
    pulses = sorted((tau - mp.mpf(s), i) for i, row in enumerate(ftds) for s in row)
    clock = mp.mpf(0)
    while True:
        t = clock + 1 - max(theta)
        if pulses and pulses[0][0] < t:
            t = pulses[0][0]
        theta = [th + (t - clock) for th in theta]
        clock = t
        last_fired = False
        for _ in range(64):
            mult = [0] * n
            while pulses and pulses[0][0] <= t + tol:
                sender = pulses.pop(0)[1]
                for j in range(n):
                    mult[j] += j != sender
            for j, m in enumerate(mult):
                if m:
                    theta[j] = min(mp.mpf(1), _o_jump_closed(b, theta[j], m * eps_hat))
            for i in range(n):
                if theta[i] >= 1 - tol:
                    theta[i] = mp.mpf(0)
                    bisect.insort(pulses, (t + tau, i))
                    last_fired = last_fired or i == n - 1
            if not (pulses and pulses[0][0] <= t + tol):
                break
        else:
            raise RuntimeError(f"cascade did not settle at t={t}")
        if last_fired:
            ftds = [sorted(clock + tau - d for d, s in pulses if s == i) for i in range(n)]
            return theta, ftds, clock


def o_distance(state, phases, ftds) -> float:
    """Largest componentwise distance between a float NetworkState and a
    50-digit state; infinite if an FTD row differs in length."""
    if any(len(ra) != len(rb) for ra, rb in zip(state.ftds, ftds)):
        return math.inf
    pairs = zip([*state.phases, *chain(*state.ftds)], [*phases, *chain(*ftds)])
    return float(max(abs(mp.mpf(x) - y) for x, y in pairs))


def scalar_detect(params, state, max_iter: int = 10_000, tol: float = DEFAULT_MATCH_TOL):
    """detect_periodicity, one start at a time on the scalar engine.

    Each return runs on a fresh Engine from the previous return's state.
    All visited states are kept, and the newest is compared by
    states_match against the earlier ones whose phase 0 lies within 2 *
    tol of its own (a sorted prefilter, wide enough that the rounding of
    its bounds drops no match), earliest first, so the reported transient
    is minimal.  Returns cycle_result's build of the found cycle, or
    NotPeriodic after max_iter iterations; what the engine or the section
    check raises propagates.
    """
    require_section_state(params, state)
    states = [state]
    # Sorted (phase 0, index) pairs, for the prefilter.
    by_phase0 = [(state.phases[0], 0)]
    returns, received = [], []
    new = state
    for i in range(1, max_iter + 1):
        new, elapsed, deliveries = Engine(params, new).run_until_section()
        returns.append(elapsed)
        received.append([(j, m, t) for t, mult in deliveries for j, m in enumerate(mult) if m])
        lo = bisect.bisect_left(by_phase0, (new.phases[0] - 2 * tol, -1))
        hi = bisect.bisect_right(by_phase0, (new.phases[0] + 2 * tol, len(states)))
        for j in sorted(idx for _, idx in by_phase0[lo:hi]):
            if states_match(states[j], new, tol):
                return cycle_result(j, states[j:], returns[j:], received[j:], tol)
        states.append(new)
        bisect.insort(by_phase0, (new.phases[0], i))
    return NotPeriodic(iterations=max_iter, last_state=new)


def cycle_result(transient, states, returns, received, tol):
    """A detected cycle's result, built return by return.

    The cycle revisits, after len(states) more returns, the state it
    reached after transient returns; returns[m] and received[m] are the
    time and the receptions of the return that leaves states[m].  The
    minimal period is the least proper divisor d of the length under which
    every state matches the one d returns on (wrapping inside the cycle),
    else the length.  The library's detector reports the length as the
    period, so this reduction is the independent check that its cycles
    are minimal.  The orbit period is the left-to-right sum of the minimal cycle's
    return times, and its receptions are timed from the cycle start,
    wrapped to 0 at the period boundary, ordered by offset and then
    recipient.
    """
    length = len(states)
    minimal = next(
        (
            d
            for d in range(1, length)
            if length % d == 0
            and all(states_match(states[m], states[(m + d) % length], tol) for m in range(length))
        ),
        length,
    )
    orbit_period = sum(returns[:minimal])
    receptions, cycle_time = [], 0.0
    for idx in range(minimal):
        for r, m, t in received[idx]:
            offset = cycle_time + t
            receptions.append((r, m, 0.0 if offset >= orbit_period - DEFAULT_MATCH_TOL else offset))
        cycle_time += returns[idx]
    receptions.sort(key=lambda rec: (rec[2], rec[0]))
    return PeriodicityResult(
        transient_iters=transient,
        poincare_period=minimal,
        orbit_period=orbit_period,
        detected_period=length,
        return_times=tuple(returns[:minimal]),
        cycle_states=tuple(states[:minimal]),
        receptions=tuple(receptions),
    )


def scan_reference(params, step: float, max_iter: int = 10_000, tol: float = DEFAULT_MATCH_TOL):
    """phase_scan's records and signature table, cell by cell.

    Each cell's start is eq_init_state's, every start is detected in one
    detect_periodicity_many batch, and each periodic cell's pulse_signature
    is interned: a bucket per sorted per_recipient() pattern, then the
    first signature in it that pulse_equivalent accepts, else a new id.
    """
    values = _grid_values(step)
    cells = [(theta1, theta2) for theta1 in values for theta2 in values]
    starts = [eq_init_state(params, theta1, theta2) for theta1, theta2 in cells]
    records, signatures, buckets = [], [], {}
    for (theta1, theta2), result in zip(
        cells, detect_periodicity_many(params, starts, max_iter=max_iter, tol=tol)
    ):
        if not isinstance(result, PeriodicityResult):
            records.append(ScanRecord(theta1=theta1, theta2=theta2, periodic=False))
            continue
        signature = pulse_signature(params, result)
        bucket = buckets.setdefault(tuple(sorted(signature.per_recipient().items())), [])
        sid = next((i for i in bucket if pulse_equivalent(signatures[i], signature)), None)
        if sid is None:
            signatures.append(signature)
            sid = len(signatures) - 1
            bucket.append(sid)
        records.append(
            ScanRecord(
                theta1=theta1,
                theta2=theta2,
                periodic=True,
                transient_iters=result.transient_iters,
                poincare_period=result.poincare_period,
                orbit_period=result.orbit_period,
                signature_id=sid,
                projection=tuple(map(phase_projection, result.cycle_states)),
            )
        )
    return tuple(records), tuple(signatures)


def scalar_oracle(params, kind, n_samples=100, seed=0, tol=1e-9, max_iter=64):
    """region_oracle sample by sample: each sample's cycle_state is built,
    every start (the center last) is detected in one
    detect_periodicity_many batch, each result is checked in turn, and the
    kept results' pulse_signatures are compared by pulse_equivalent."""
    _require_nonempty(params, kind)
    family = FAMILIES[kind]
    expected = family.poincare_period
    expected_period = family.period_delays * params.tau
    sigmas = sample_interior(params, kind, n_samples, seed=seed)

    failures = []
    counts = {}
    signatures = []
    pair_ok = True if family.locked_pair else None

    samples = [tuple(float(v) for v in row) for row in sigmas]
    starts = [cycle_state(params, kind, s) for s in samples]
    starts.append(cycle_state(params, kind, region_center(kind, params.tau)))
    *results, center_result = detect_periodicity_many(params, starts, max_iter=max_iter, tol=tol)
    for sigma, result in zip(samples, results):
        if isinstance(result, NotPeriodic):
            failures.append((sigma, f"no cycle within {max_iter} iterations"))
            continue
        counts[result.poincare_period] = counts.get(result.poincare_period, 0) + 1
        if result.transient_iters != 0:
            failures.append((sigma, f"cycle state needed a transient of {result.transient_iters}"))
            continue
        if result.poincare_period != expected:
            failures.append((sigma, f"poincare period {result.poincare_period} != {expected}"))
            continue
        if abs(result.orbit_period - expected_period) > tol:
            failures.append(
                (sigma, f"orbit period {result.orbit_period} != {family.period_delays}*tau")
            )
            continue
        if family.locked_pair and any(
            abs(state.phases[0] - state.phases[1]) > tol for state in result.cycle_states
        ):
            pair_ok = False
            failures.append((sigma, "locked pair drifted apart"))
        signatures.append(pulse_signature(params, result))

    all_equivalent = all(
        pulse_equivalent(signatures[0], s) for s in signatures[1:]
    ) if signatures else False
    periodic = isinstance(center_result, PeriodicityResult)
    return OracleReport(
        kind=kind,
        n_samples=n_samples,
        seed=seed,
        expected_poincare_period=expected,
        poincare_period_counts=counts,
        failures=tuple(failures),
        all_pulse_equivalent=all_equivalent,
        pair_synchronized=pair_ok,
        center_poincare_period=center_result.poincare_period if periodic else None,
        center_orbit_period=center_result.orbit_period if periodic else None,
    )


def swap_free(state):
    """state with its two free oscillators (the first two) relabeled."""
    return network_state(
        phases=(state.phases[1], state.phases[0], state.phases[2]),
        ftds=(state.ftds[1], state.ftds[0], state.ftds[2]),
    )


def family_point(params, spec, result, tol: float = 1e-7):
    """(mirrored, sigma) of the first state of a detected cycle, in cycle
    order, that embeds a period-4 family point: directly (mirrored False),
    else after swap_free.  A state embeds sigma = (its FTD of oscillator
    0, of oscillator 1, the reference's second) when its FTD rows hold 1,
    1 and 2 entries, the reference's first exactly 0.0, s_embed accepts
    sigma, membership holds within tol, and the state matches s_embed's
    within tol.  None if no state does."""
    for mirrored in (False, True):
        for state in result.cycle_states:
            candidate = swap_free(state) if mirrored else state
            if tuple(map(len, candidate.ftds)) != (1, 1, 2) or candidate.ftds[2][0] != 0.0:
                continue
            sigma = (candidate.ftds[0][0], candidate.ftds[1][0], candidate.ftds[2][1])
            try:
                canonical = s_embed(params, "IR4", sigma)
            except DomainError:
                continue
            if membership(spec, sigma, margin=-tol) and states_match(candidate, canonical, tol):
                return mirrored, sigma
    return None


def scalar_overlay(
    params, n_samples=200, seed=0, step=0.05, max_iter=DEFAULT_SCAN_MAX_ITER, tol=1e-6
):
    """projection_compare cycle by cycle.  The analytic points are each
    sample's embedding, projected.  Every cell of the grid starts from its
    eq_init_state, all in one detect_periodicity_many batch, and each
    period-4 result, in grid order, is identified by family_point; an
    identified sigma gives the projections of its four g_map images.  The
    seeded orbits start from each sample's s_embed, detected in one batch
    with a budget of 16 returns, and every period-4 cycle state is
    projected."""
    _require_nonempty(params, "IR4")
    spec = region_spec(params, "IR4")

    def plane(sigma):
        return FAMILIES["IR4"].embed(params, sigma)[0][:2]

    samples = sample_interior(params, "IR4", n_samples, seed=seed).tolist()
    analytic = tuple(plane(tuple(sigma)) for sigma in samples)
    values = _grid_values(step)
    starts = [eq_init_state(params, theta1, theta2) for theta1 in values for theta2 in values]
    numeric, identified, mirrors, unidentified = [], 0, 0, 0
    for result in detect_periodicity_many(params, starts, max_iter=max_iter):
        if not isinstance(result, PeriodicityResult) or result.poincare_period != 4:
            continue
        found = family_point(params, spec, result)
        if found is None:
            unidentified += 1
            continue
        mirrored, sigma = found
        identified, mirrors = identified + 1, mirrors + mirrored
        for _ in range(4):
            numeric.append(plane(sigma))
            sigma = g_map(sigma, params.tau)

    samples = sample_interior(params, "IR4", n_samples, seed=seed + 1).tolist()
    seeds = [s_embed(params, "IR4", tuple(sigma)) for sigma in samples]
    seeded, seeded_orbits = [], 0
    for result in detect_periodicity_many(params, seeds, max_iter=16):
        if isinstance(result, PeriodicityResult) and result.poincare_period == 4:
            seeded_orbits += 1
            seeded += map(phase_projection, result.cycle_states)

    violations = tuple(p for p in numeric if not ir4_projection_contains(params, *p, tol=tol))
    return ProjectionCompareReport(
        params=params,
        n_samples=n_samples,
        seed=seed,
        step=step,
        tol=tol,
        analytic_points=analytic,
        numeric_points=tuple(numeric),
        numeric_orbit_count=identified,
        mirror_orbit_count=mirrors,
        unidentified_period4_count=unidentified,
        seeded_points=tuple(seeded),
        seeded_orbit_count=seeded_orbits,
        contained=not violations,
        violations=violations,
    )


class PaddedHistory:
    """lockstep._History's log, entry by entry as plain Python values.

    add, keep, match and entries take and give what _History's do.  A
    state matches a logged state of its row when their FTD entries have the
    same senders in the same order and no phase or FTD entry differs by
    more than tol (old minus new, as the library subtracts); match gives
    the earliest such state's age.  entries pads each row's FTD entries by
    (0.0, n) to the widest of the entries read, and gives their
    deliveries flat, entry after entry, with the count of each.
    """

    def __init__(self, n: int):
        self.n = n
        self.log: list[dict] = []

    def add(self, slots, ages, entry):
        phases, ftds, senders, elapsed, delivered, when, mult = entry
        first = 0
        for k, (slot, age) in enumerate(zip(slots.tolist(), ages.tolist())):
            held = [j for j in range(senders.shape[1]) if senders[k, j] < self.n]
            got = range(first, first + int(delivered[k]))
            first = got.stop
            self.log.append(
                {
                    "slot": slot,
                    "age": age,
                    "phases": phases[k].tolist(),
                    "ftds": [float(ftds[k, j]) for j in held],
                    "who": [int(senders[k, j]) for j in held],
                    "elapsed": float(elapsed[k]),
                    "when": [float(when[d]) for d in got],
                    "mult": [mult[d].tolist() for d in got],
                }
            )
        assert first == len(when) == len(mult)

    def keep(self, rows):
        renumbered = np.cumsum(rows) - 1
        self.log = [
            dict(e, slot=int(renumbered[e["slot"]])) for e in self.log if rows[e["slot"]]
        ]

    def match(self, phases, ftds, senders, tol):
        matched = []
        for r in range(len(phases)):
            held = senders[r] < self.n
            who, values = senders[r][held].tolist(), phases[r].tolist() + ftds[r][held].tolist()
            ages = (
                e["age"]
                for e in self.log
                if e["slot"] == r
                and e["who"] == who
                and all(abs(a - b) <= tol for a, b in zip(e["phases"] + e["ftds"], values))
            )
            matched.append(next(ages, -1))
        return np.array(matched)

    def entries(self, lo, hi, returns=False):
        picked = [
            e
            for r in range(len(lo))
            for e in sorted(self.log, key=lambda e: e["age"])
            if e["slot"] == r and lo[r] <= e["age"] < hi[r]
        ]
        if returns:
            return [
                np.array([e["elapsed"] for e in picked], dtype=float),
                np.array([len(e["when"]) for e in picked], dtype=int),
                np.array([t for e in picked for t in e["when"]], dtype=float),
                np.array([m for e in picked for m in e["mult"]], dtype=int).reshape(-1, self.n),
            ]
        width = max((len(e["ftds"]) for e in picked), default=0)
        ftds = np.zeros((len(picked), width))
        senders = np.full((len(picked), width), self.n)
        for k, e in enumerate(picked):
            ftds[k, : len(e["ftds"])], senders[k, : len(e["who"])] = e["ftds"], e["who"]
        phases = np.array([e["phases"] for e in picked], dtype=float).reshape(-1, self.n)
        return [phases, ftds, senders]

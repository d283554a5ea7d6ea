import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from conftest import breakdown_delta
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrav import (AU, GM_SUN, DomainError, ModelBreakdownError, PlanetElements,
                   Provenance, QuantumRule, QuantizedModel, SingularityError,
                   StepFailureError, Trajectory, derive_orbit, integrate, load_planets,
                   measured_precession, orbit_params, planet_precession, quantum_from_error,
                   rad_to_arcsec)
from qgrav.forces import _drift_frame
from qgrav.orbit import (_adaptive_steps, _dopri_step, _drift_step, _export, _forcing,
                         _merge_samples, _perihelion_passages, _perihelion_start,
                         _place_passage)


def _mercury_model(mercury_orbit, delta=0.0398):
    q = quantum_from_error(delta, mercury_orbit)
    return QuantizedModel(quantum=q, mu=mercury_orbit.mu, h=mercury_orbit.h), q


def test_forcing_newtonian_limit(mercury_orbit):
    c = mercury_orbit.mu / mercury_orbit.h ** 2
    for u in (1e-12, 2e-11, 5e-11):
        assert _forcing(c, 0.0, u) == pytest.approx(-u + c, rel=1e-15)


def test_forcing_first_order_expansion(mercury_orbit):
    # the exact forcing matches -u + c(1 + q u) up to O((q u)^2)
    _, q = _mercury_model(mercury_orbit)
    c = mercury_orbit.mu / mercury_orbit.h ** 2
    for u in (1e-11, 2.1738e-11, 4e-11):
        exact = _forcing(c, q, u)
        first_order = -u + c * (1.0 + q * u)
        assert abs(exact - first_order) <= 2.0 * c * (q * u) ** 2


def test_forcing_frozen_point(mercury_orbit):
    # single-point oracle: independent arithmetic at u = 1/r_p
    _, q = _mercury_model(mercury_orbit)
    u = 1.0 / mercury_orbit.r_p
    c = mercury_orbit.mu / mercury_orbit.h ** 2
    expected = -u + c / (1.0 - q * u)
    got = _forcing(c, q, u)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(-3.707747858585475e-12, rel=1e-12)


def test_forcing_singularity(mercury_orbit):
    c, q = mercury_orbit.mu / mercury_orbit.h ** 2, 1e9
    with pytest.raises(SingularityError):
        _forcing(c, q, 1.0 / 1e8)  # radius below the quantum
    with pytest.raises(DomainError):
        _forcing(c, q, -1.0)


def test_integrate_newtonian_conic(mercury_orbit):
    # known exact solution: u = (1 + A p cos theta)/p, A p = e, with the
    # amplitude A = 1/r_p - 1/p that puts the perihelion at theta = 0
    p, _ = orbit_params(0.0, mercury_orbit)
    amplitude = 1.0 / mercury_orbit.r_p - 1.0 / p
    model = QuantizedModel(quantum=0.0, mu=mercury_orbit.mu, h=mercury_orbit.h)
    for tol in (1e-12, 1e-9):
        traj = integrate(model, 1.0 / mercury_orbit.r_p, 0.0, 20.0 * math.pi, tol=tol)
        u_conic = (1.0 + amplitude * p * np.cos(traj.theta)) / p
        dev = np.max(np.abs(np.asarray(traj.u) - u_conic) / u_conic)
        assert dev <= 100.0 * tol


def test_integrate_circular_fixed_point(mercury_orbit):
    model = QuantizedModel(quantum=0.0, mu=mercury_orbit.mu, h=mercury_orbit.h)
    u_circ = mercury_orbit.mu / mercury_orbit.h ** 2
    traj = integrate(model, u_circ, 0.0, 10.0 * math.pi, tol=1e-12)
    assert np.max(np.abs(np.asarray(traj.u) - u_circ)) <= 1e-12 * u_circ


def test_integrate_matches_closed_form(mercury_orbit):
    # analytic rosette r = p / (1 + A p cos(x theta)) as oracle, anchored at
    # the perihelion by A = 1/r_p - 1/p; dropped higher-order terms are
    # ~1e-13 here
    model, q = _mercury_model(mercury_orbit)
    p, x = orbit_params(q, mercury_orbit)
    amplitude = 1.0 / mercury_orbit.r_p - 1.0 / p
    traj = integrate(model, 1.0 / mercury_orbit.r_p, 0.0, 20.0 * math.pi, tol=1e-12)
    r_num = 1.0 / np.asarray(traj.u)
    r_ana = p / (1.0 + amplitude * p * np.cos(x * np.asarray(traj.theta)))
    assert np.max(np.abs(r_num - r_ana) / r_ana) <= 1e-6


def test_integrate_validation(mercury_orbit):
    model = QuantizedModel(quantum=0.0, mu=mercury_orbit.mu, h=mercury_orbit.h)
    u0 = 1.0 / mercury_orbit.r_p
    for theta_max in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="theta_max must be positive"):
            integrate(model, u0, 0.0, theta_max)
    for tol in (1e-3, 1e-15):
        with pytest.raises(DomainError, match=r"tolerance must lie in \[1e-14, 1e-06\]"):
            integrate(model, u0, 0.0, 10.0, tol=tol)
    with pytest.raises(DomainError, match="initial inverse radius must be positive"):
        integrate(model, -u0, 0.0, 10.0)
    for du0 in (math.nan, math.inf):
        with pytest.raises(DomainError, match="initial slope must be finite"):
            integrate(model, u0, du0, 10.0)
    # no step fits within the 1e-12 rad end margin
    for theta_max in (1e-12, 1e-13):
        with pytest.raises(DomainError, match="theta_max must exceed 1e-12 rad"):
            integrate(model, u0, 0.0, theta_max)
    assert integrate(model, u0, 0.0, 5e-12).theta[-1] == 5e-12
    # the checks run in that order
    with pytest.raises(DomainError, match="theta_max"):
        integrate(model, -u0, math.nan, 0.0, tol=1e-3)
    with pytest.raises(DomainError, match="tolerance"):
        integrate(model, -u0, math.nan, 10.0, tol=1e-3)
    with pytest.raises(DomainError, match="inverse radius"):
        integrate(model, -u0, math.nan, 10.0)


def test_integrate_step_underflow(mercury_orbit):
    # At 6e4" (epsilon = 0.2413) the exact orbit from the perihelion falls
    # into the quantum: the force diverges and the step shrinks below
    # 1e-13 theta before a stage reaches q u >= 1. The angle pins the step
    # controller's arithmetic.
    model, _ = _mercury_model(mercury_orbit, delta=6e4)
    with pytest.raises(StepFailureError,
                       match=r"^step size underflow at theta = 9\.557082510502275$"):
        integrate(model, 1.0 / mercury_orbit.r_p, 0.0, 30.0, 1e-10)


def test_trajectory_shape_and_metadata(mercury_orbit):
    model, _ = _mercury_model(mercury_orbit)
    traj = integrate(model, 1.0 / mercury_orbit.r_p, 0.0, 4.0 * math.pi, tol=1e-10)
    gaps = np.diff(traj.theta)
    assert np.all(gaps > 0)
    assert np.max(gaps) < math.pi / 8.0
    assert traj.n_accepted > 0
    assert traj.n_rejected >= 0
    assert traj.theta[0] == 0.0
    assert traj.theta[-1] == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_integrate_deterministic(mercury_orbit):
    model, _ = _mercury_model(mercury_orbit)
    a = integrate(model, 1.0 / mercury_orbit.r_p, 0.0, 6.0 * math.pi, tol=1e-11)
    b = integrate(model, 1.0 / mercury_orbit.r_p, 0.0, 6.0 * math.pi, tol=1e-11)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.u, b.u)
    assert (a.n_accepted, a.n_rejected) == (b.n_accepted, b.n_rejected)


def _passage_angles(el, delta, n, tol):
    """theta_0..theta_n of el's exact orbit. _perihelion_passages places only
    its first and last passage, and placing never feeds back into the steps,
    so theta_k is the last angle of the call with n_orbits = k."""
    ends = [_perihelion_passages(el, delta, QuantumRule.PERIHELION, k, tol)[0]
            for k in range(1, n + 1)]
    return [ends[0][0]] + [theta_k for _, theta_k in ends]


def test_advance_positivity(mercury):
    angles = _passage_angles(mercury, 0.0398, 5, 1e-12)
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    assert len(gaps) == 5
    assert all(gap > 2.0 * math.pi for gap in gaps)


def _reference_module():
    """perfbench/reference.py, loaded as it stands: its Reference gives the
    exact advance per radial period by a 60-digit apsidal quadrature."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import reference
    finally:
        sys.path.remove(perfbench)
    return reference


@pytest.fixture(scope="module")
def exact_reference():
    return _reference_module().Reference()


# The mean advance against the exact apsidal angle, as (planet, e in place
# of its own, delta in arcsec, n_orbits, tol, bound in rad/orbit, bound
# relative to the exact advance).
EXACT_ADVANCE_CASES = [
    # Every bundled planet lands within 1e-10 rad/orbit at either tol
    # (2.2e-16 at most measured at either; Venus missed by 7.4e-9 at tol
    # 1e-10 before the error norm followed the oscillation). At the paper's
    # delta the advance is 5e-7 rad/orbit. Formed as
    # (theta_50 - theta_0) / 50 - 2 pi from theta_50 near 314 it kept about
    # 22 bits (Mercury missed by 1.1e-9 relative); read off the apse line it
    # lands within 1e-12 relative (5.3e-16 at most measured, Venus). At
    # Mercury, delta 0 and tol 1e-10 an accepted step once landed next to a
    # stencil point near one perihelion; fitting through both lost that
    # passage, and the mean advance gained 2 pi / 49 = 0.128 rad.
    *[(el.name, None, delta, 50, tol, 1e-10,
       1e-12 if delta == 0.0398 and tol == 1e-12 else None)
      for el in load_planets() for delta in (0.0, 0.0398, 300.0) for tol in (1e-12, 1e-10)],
    # tol scales with the oscillation amplitude |u0 - u_star|, not with u0:
    # Mercury's a and tau at e = 0 (its derived eccentricity is 3.3e-6) and
    # 1e-6 land within 1e-12 rad/orbit (below 1e-46 measured; the error
    # control on u0 missed by 1.7e-7).
    *[("Mercury", e, delta, 10, 1e-12, 1e-12, None) for e in (0.0, 1e-6)
      for delta in (0.0, 0.0398)],
    # At 3e4" (epsilon = 0.12) the drift is far from small, and the advance
    # still lands within 1e-10 rad/orbit of the converged 60-digit reference
    # (5.9e-13 measured at tol 1e-10, 2.7e-15 at tol 1e-12).
    *[("Mercury", None, 3e4, 50, tol, 1e-10, None) for tol in (1e-10, 1e-12)],
]


@pytest.mark.parametrize("name, e, delta, n_orbits, tol, bound, rel", EXACT_ADVANCE_CASES)
def test_measured_precession_matches_exact_advance(planets, exact_reference, name, e, delta,
                                                   n_orbits, tol, bound, rel):
    el = planets[name]
    if e is not None:
        el = PlanetElements(name=name, a=el.a, e=e, tau_days=el.tau_days)
    exact = float(exact_reference.exact_advance(el.a, el.e, el.tau_days, delta))
    result = measured_precession(el, delta, n_orbits=n_orbits, tol=tol)
    assert result.provenance is Provenance.NUMERIC
    gap = abs(result.per_orbit_rad - exact)
    assert gap <= bound
    if rel is not None:
        assert gap <= rel * exact


def test_passages_on_a_kepler_ellipse():
    # At q = 0 the drift rates vanish, the apse line stands still and
    # passage k is placed at exactly 2 pi k, however eccentric the ellipse.
    for e in (0.2, 0.9):
        el = PlanetElements(name="K", a=1.5e11, e=e, tau_days=365.0)
        angles = _passage_angles(el, 0.0, 5, 1e-12)
        assert angles == [2.0 * math.pi * k for k in range(6)]


def test_passage_placement_at_large_epsilon(mercury):
    # At 5.9e4" (epsilon = 0.237) the apse line turns fast, within a step
    # too, and each passage is still placed at the integrator's precision:
    # the tol 1e-10 advance lies within 1e-9 rad of the tol 1e-14 one
    # (8.3e-11 measured).
    coarse, fine = (measured_precession(mercury, 5.9e4, n_orbits=3, tol=tol).per_orbit_rad
                    for tol in (1e-10, 1e-14))
    assert abs(coarse - fine) < 1e-9


def test_circular_start_has_no_perihelion():
    # With e = 0, q = 0 and this period, u0 = 1/a equals the circular fixed
    # point to the last bit: the oscillation amplitude is 0.
    el = PlanetElements(name="C", a=5.79092e10, e=0.0, tau_days=87.96940546067682)
    orbit = el.orbit
    assert 1.0 / orbit.r_p == orbit.mu / orbit.h ** 2
    with pytest.raises(DomainError, match="no perihelion"):
        measured_precession(el, 0.0, n_orbits=2)


def test_benchmark_reference_self_check():
    # perfbench/reference.py's own check, which raises ReferenceError unless
    # the advance vanishes at q = 0 and measured_precession lands within
    # 1e-10 rad/orbit of the exact advance at Mercury, 300".
    reference = _reference_module()
    reference.validate(reference.Reference(), measured_precession, PlanetElements)


def test_perihelion_passages(planets, mercury):
    # Passage 0 is the start when it is a perihelion, as for the bundled
    # planets. At large epsilon the first-order period undershoots the exact
    # one (1.6x at 5.9e4", where the start is the exact orbit's aphelion),
    # yet all n_orbits + 1 passages are found, each one exact period apart.
    for el in planets.values():
        (theta_0, _), _ = _perihelion_passages(el, 0.0398, QuantumRule.PERIHELION, 2, 1e-12)
        assert theta_0 == 0.0
    for delta in (3e4, 5.9e4):
        angles = _passage_angles(mercury, delta, 3, 1e-10)
        assert len(angles) == 4
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        assert max(gaps) - min(gaps) < 1e-7
        # The advance is read off the apse line, not off theta_3 - theta_0;
        # the two agree within the rounding of theta_3.
        result = measured_precession(mercury, delta, n_orbits=3, tol=1e-10)
        mean_gap = (angles[-1] - angles[0]) / 3 - 2.0 * math.pi
        assert abs(result.per_orbit_rad - mean_gap) <= 4.0 * math.ulp(angles[-1]) / 3
    assert angles[0] > 5.0
    # Nearer the breakdown boundary (5.9783325e4" for Mercury) the exact
    # period grows past twice the first-order one, and the passages are
    # still all found. Against a 50-digit quadrature of the exact advance,
    # tol 1e-12 and n = 3 miss by 7.9e-12, 2.9e-11 and 1.9e-9 relative;
    # each bound is 4 times that.
    orbit = derive_orbit(mercury)
    for delta, bound in ((59750.0, 3.2e-11), (59775.49157436139, 1.2e-10),
                         (59783.246490105, 7.6e-9)):
        q, _, u0 = _perihelion_start(mercury, delta, QuantumRule.PERIHELION)
        exact = _exact_advance(q, orbit.mu, orbit.h, u0)
        measured = measured_precession(mercury, delta, n_orbits=3, tol=1e-12).per_orbit_rad
        assert abs(measured - exact) <= bound * exact, delta


def test_only_the_first_and_last_passage_are_placed(planets, mercury, monkeypatch):
    # The advance reads passages 0 and n alone, so the passages between are
    # counted and not placed. A perihelion start is passage 0 itself; at
    # 5.9e4" the start is an aphelion, and passage 0 is placed too.
    thetas = []

    def counted(step, omega, theta, state, phase_gap):
        thetas.append(theta)
        return _place_passage(step, omega, theta, state, phase_gap)

    monkeypatch.setattr("qgrav.orbit._place_passage", counted)
    for el in planets.values():
        thetas.clear()
        measured_precession(el, 0.0398, n_orbits=50)
        assert len(thetas) == 1, el.name
    thetas.clear()
    measured_precession(mercury, 5.9e4, n_orbits=3)
    assert len(thetas) == 2


def _exact_advance(quantum, mu, h, u0):
    """The exact advance per radial period of the orbit from rest at u0, by
    50-digit quadrature: 2 times the integral of du / sqrt(2 (E - W(u)))
    between the turning points, less 2 pi, with E = W(u0) and
    W(u) = u^2/2 + (c/q) log1p(-q u). The other turning point is bisected on
    the far side of the circular point u_star, where W rises to the barrier
    at u_plus or to W(0) = 0, and kept on its side of the well so that
    E - W stays positive but for rounding at the ends."""
    mp, mpf = mpmath.mp, mpmath.mpf
    with mp.workdps(50):
        q, mu, h, u0 = mpf(quantum), mpf(mu), mpf(h), mpf(u0)
        c = mu / (h * h)
        s = mp.sqrt(1 - 4 * q * c)
        u_star = 2 * c / (1 + s)

        def W(u):
            return u * u / 2 + (c / q) * mp.log1p(-q * u)

        energy = W(u0)
        inner, outer = u_star, (1 + s) / (2 * q) if u0 < u_star else mpf(0)
        for _ in range(200):
            mid = (inner + outer) / 2
            if W(mid) < energy:
                inner = mid
            else:
                outer = mid
        a, b = sorted((u0, inner))
        period = 2 * mp.quad(lambda u: 1 / mp.sqrt(2 * abs(energy - W(u))), [a, u_star, b])
        return float(period - 2 * mp.pi)


@pytest.mark.parametrize("delta", [0.0398, 3.0, 300.0])
@pytest.mark.parametrize("rule", list(QuantumRule))
@pytest.mark.parametrize("name", ["Mercury", "Venus", "Earth"])
def test_first_order_advance_is_low_by_two_epsilon(planets, name, rule, delta):
    # The closed form truncates the exact advance at first order in
    # epsilon = q mu/h^2. Against the 50-digit advance of the start's float
    # orbit it is low by 2 epsilon (1 + c epsilon), with c from 2.496 to
    # 2.538 measured over these cases.
    el = planets[name]
    orbit = derive_orbit(el)
    q, _, u0 = _perihelion_start(el, delta, rule)
    eps = q * orbit.mu / (orbit.h * orbit.h)
    exact = _exact_advance(q, orbit.mu, orbit.h, u0)
    ratio = (planet_precession(el, delta, rule).per_orbit_rad - exact) / exact / eps
    assert -2.0 - 3.0 * eps <= ratio <= -2.0 - 2.0 * eps


def test_the_drift_steps_at_pi_over_4_below_the_kappa_threshold(planets, monkeypatch):
    # Up to 20" the bundled planets' kappa stays below 1e-4 (9.6e-5 at
    # most), and 50 orbits take 8 steps per radial period at the cap, 400,
    # plus the 3 that grow from the initial step to it. At 300" kappa is
    # 1.2e-3 or more, and the cap stays pi/8: 16 per period, 803 steps.
    counts = []

    def counted(*args):
        for out in _adaptive_steps(*args):
            counts[-1] += 1
            yield out

    monkeypatch.setattr("qgrav.orbit._adaptive_steps", counted)
    for el in planets.values():
        for delta, steps in ((0.0, 403), (0.0398, 403), (3.0, 403), (20.0, 403), (300.0, 803)):
            counts.append(0)
            measured_precession(el, delta, n_orbits=50, tol=1e-12)
            assert counts[-1] == steps, (el.name, delta)


# Kepler's period, in days, of a planet at 0.7 AU
_TAU_DAYS_07 = 2.0 * math.pi * math.sqrt((0.7 * AU) ** 3 / GM_SUN) / 86400.0


@pytest.mark.parametrize("delta", [0.0398, 3.0, 20.0])
@pytest.mark.parametrize("e", [1e-6, 1e-3, 0.5, 0.9, 0.99])
def test_the_coarse_drift_cap_lands_no_further_from_the_exact_advance(e, delta, monkeypatch):
    # Below kappa = 1e-4 the drift steps at pi/4, from near-circular orbits
    # to e = 0.99, and lands as close to the 50-digit advance as the pi/8
    # cap (the threshold set to 0) or closer; a gap within 2 ulps of the
    # exact advance counts as a tie.
    el = PlanetElements(name="K", a=0.7 * AU, e=e, tau_days=_TAU_DAYS_07)
    orbit = derive_orbit(el)
    q, _, u0 = _perihelion_start(el, delta, QuantumRule.PERIHELION)
    exact = _exact_advance(q, orbit.mu, orbit.h, u0)

    def gap():
        return abs(measured_precession(el, delta, n_orbits=50, tol=1e-12).per_orbit_rad - exact)

    coarse = gap()
    monkeypatch.setattr("qgrav.orbit._COARSE_DRIFT_KAPPA", 0.0)
    assert coarse <= max(gap(), 2.0 * math.ulp(exact))


# The largest delta, in arcsec, that each rule admits on each bundled planet.
BREAKDOWN_DELTA = {
    ("Mercury", QuantumRule.PERIHELION): 59783.32482258726,
    ("Mercury", QuantumRule.SEMIMINOR): 48527.078458868964,
    ("Venus", QuantumRule.PERIHELION): 48890.784995831345,
    ("Venus", QuantumRule.SEMIMINOR): 48560.75037909398,
    ("Earth", QuantumRule.PERIHELION): 49429.274094892455,
    ("Earth", QuantumRule.SEMIMINOR): 48610.08725679414,
}


@pytest.mark.parametrize("name, rule", BREAKDOWN_DELTA)
def test_planet_precession_and_orbit_params_break_down_at_one_delta(planets, name, rule):
    # breakdown_delta bisects against planet_precession; orbit_params, which
    # the measurement starts from, admits the same last delta and refuses
    # the next float
    el, orbit = planets[name], derive_orbit(planets[name])
    last = breakdown_delta(el, rule)
    assert last == BREAKDOWN_DELTA[name, rule]
    orbit_params(quantum_from_error(last, orbit, rule), orbit)
    with pytest.raises(ModelBreakdownError):
        orbit_params(quantum_from_error(math.nextafter(last, math.inf), orbit, rule), orbit)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["Mercury", "Venus", "Earth"]),
       rule=st.sampled_from(list(QuantumRule)), fraction=st.floats(0.0, 1.0 - 1e-9),
       n=st.sampled_from([2, 3]), tol=st.sampled_from([1e-10, 1e-12]))
def test_measurement_reaches_the_breakdown_boundary(planets, name, rule, fraction, n, tol):
    # Every admitted orbit is periodic, so the measurement returns at any
    # delta below the breakdown boundary, however long the exact period,
    # and refuses just past it exactly as planet_precession does.
    el = planets[name]
    delta_max = breakdown_delta(el, rule)
    result = measured_precession(el, fraction * delta_max, rule, n_orbits=n, tol=tol)
    assert math.isfinite(result.per_orbit_rad) and result.per_orbit_rad >= 0.0
    with pytest.raises(ModelBreakdownError, match="unbounded"):
        measured_precession(el, math.nextafter(delta_max, math.inf), rule, n_orbits=n, tol=tol)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["Mercury", "Venus", "Earth"]),
       rule=st.sampled_from(list(QuantumRule)), fraction=st.floats(0.0, 1.0 - 1e-9))
def test_drift_frame_sits_in_the_breakdown_rules_well(planets, name, rule, fraction):
    # The measurement's frame and the breakdown rule describe one well: the
    # frame's d = 1 - q u_star is the rule's barrier x+ = q u+, the other
    # root of u (1 - q u) = c, and kappa + omega^2 = 1.
    orbit = derive_orbit(planets[name])
    q = quantum_from_error(fraction * breakdown_delta(planets[name], rule), orbit, rule)
    eps = q * orbit.mu / (orbit.h * orbit.h)  # as orbit_params forms it
    _, d, kappa, omega = _drift_frame(orbit.mu / (orbit.h * orbit.h), q)
    x_plus = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * eps))
    assert abs(d - x_plus) <= 1e-15 * x_plus
    assert abs(kappa + omega * omega - 1.0) <= 4.5e-16


def test_measured_precession_streams(mercury):
    # No sample is stored: 200 orbits peak within 16 KiB of 2 orbits (the
    # stored trajectory took 1.5 MB more at tol 1e-8, 8.8 MB at 1e-12). The
    # loose tol keeps the traced run short; the peak does not depend on it.
    import tracemalloc

    def peak(n_orbits):
        tracemalloc.start()
        try:
            measured_precession(mercury, 0.0398, n_orbits=n_orbits, tol=1e-8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200) - peak(2) < 16 * 1024


def test_the_export_holds_each_sample_once(mercury):
    # integrate keeps theta, u and du in three float columns, 24 B a sample,
    # and merges the stencils into two more: 200 orbits peak below 64 B a
    # sample, where a list of (theta, u, du) tuples took 163 B.
    import tracemalloc
    tracemalloc.start()
    try:
        n_samples = len(_export(mercury, 0.0398, QuantumRule.PERIHELION, 200, 1e-8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * n_samples


def test_measured_precession_breakdown(mercury):
    # epsilon = 0.237 still gives a bounded exact orbit; 0.241 and 0.40 do
    # not. The refusal names the planet, as the escape refusal does.
    result = measured_precession(mercury, 5.9e4, n_orbits=3, tol=1e-10)
    assert result.per_orbit_rad > 0.0
    for delta in (6e4, 1e5):
        with pytest.raises(ModelBreakdownError, match="^Mercury: quantum .* unbounded"):
            measured_precession(mercury, delta, n_orbits=3, tol=1e-10)


def _at_escape_ratio(ratio):
    """Elements at 1 AU, e = 0.5 whose h^2/(mu r_p) is ratio; 2 is escape speed at q = 0."""
    a, e = AU, 0.5
    b = a * math.sqrt(1.0 - e * e)
    h = math.sqrt(ratio * GM_SUN * a * (1.0 - e))
    return PlanetElements(name="Edge", a=a, e=e, tau_days=2.0 * math.pi * a * b / h / 86400.0)


def test_measured_precession_refuses_an_escaping_orbit():
    bound = _at_escape_ratio(1.999)
    for delta in (0.0, 0.0398, 300.0):
        assert measured_precession(bound, delta, n_orbits=3, tol=1e-10).per_orbit_rad >= 0.0
    escaping = _at_escape_ratio(2.0001)
    for delta in (0.0, 0.0398):
        with pytest.raises(DomainError, match="^Edge: the exact orbit from perihelion escapes"):
            measured_precession(escaping, delta, n_orbits=3, tol=1e-10)
    # A quantum large enough deepens the well until the same start is bound.
    result = measured_precession(escaping, 300.0, n_orbits=3, tol=1e-10)
    assert result.per_orbit_rad == pytest.approx(0.0022891, rel=1e-4)


def test_measured_precession_validation(mercury):
    # 2.5 orbits once placed 3 passages and divided their 2 gaps by 2.5
    for n_orbits in (1, 2.0, 2.5, True, np.float64(2.0)):
        with pytest.raises(DomainError, match=r"^need a whole number of at least 2 orbits"):
            measured_precession(mercury, 0.0398, n_orbits=n_orbits)
    # Any integer type is counted as its int, so results stay plain floats.
    result = measured_precession(mercury, 0.0398, n_orbits=np.int64(3))
    assert result == measured_precession(mercury, 0.0398, n_orbits=3)
    assert type(result.per_orbit_rad) is float
    for tol in (1e-15, 1e-3):
        with pytest.raises(DomainError, match="tolerance must lie"):
            measured_precession(mercury, 0.0398, tol=tol)


def test_measured_precession_truncation_probe(mercury, mercury_orbit):
    # quantum at 1e-3 of the perihelion distance: first-order analytic and
    # exact integration agree to 0.5%, the residual carrying the sign of the
    # dropped positive term
    delta_eq = rad_to_arcsec(1e-3)  # q = delta_rad * r_p = 1e-3 r_p
    q = quantum_from_error(delta_eq, mercury_orbit)
    assert q == pytest.approx(1e-3 * mercury_orbit.r_p, rel=1e-12)
    _, x = orbit_params(q, mercury_orbit)
    analytic = 2.0 * math.pi * (1.0 - x) / x
    result = measured_precession(mercury, delta_eq, n_orbits=10, tol=1e-12)
    residual = (result.per_orbit_rad - analytic) / analytic
    assert abs(residual) < 5e-3
    assert residual > 0.0


def test_tolerance_monotonicity(mercury, mercury_orbit):
    # halving tol must not grow the deviation from the analytic oracle by
    # more than 2x (guards against unstable event refinement)
    q = quantum_from_error(0.0398, mercury_orbit)
    _, x = orbit_params(q, mercury_orbit)
    analytic = 2.0 * math.pi * (1.0 - x) / x

    def deviation(tol):
        result = measured_precession(mercury, 0.0398, n_orbits=3, tol=tol)
        return abs(result.per_orbit_rad - analytic)

    floor = 1e-12
    for tol in (1e-6, 1e-8):
        assert deviation(tol / 2.0) <= 2.0 * deviation(tol) + floor


def test_integrate_singularity_stop(mercury_orbit):
    # radial plunge into the quantum: u grows until q u reaches 1
    q = mercury_orbit.r_p / 20.0
    model = QuantizedModel(quantum=q, mu=mercury_orbit.mu, h=mercury_orbit.h)
    with pytest.raises(SingularityError):
        integrate(model, 19.0 / mercury_orbit.r_p, 5e-9, 40.0 * math.pi, tol=1e-9)


def test_integrate_stage_domain_check(mercury_orbit):
    model, _ = _mercury_model(mercury_orbit)
    u0 = 1.0 / mercury_orbit.r_p
    # a slope steep enough that the first stage lands at negative u
    with pytest.raises(DomainError, match="inverse radius must be positive"):
        integrate(model, u0, -1e4 * u0, 1.0)


# A stage of each stepper is named by the rate it was about to form; the
# last two stages of both sit at the step's end.
_DOPRI_RATES = ("k2v", "k3v", "k4v", "k5v", "k6v", "f_new")
_DRIFT_RATES = ("ka2", "ka3", "ka4", "ka5", "ka6", "ka7")
_Q = 0.5
# (stage, error, arguments): for each of the six checks of each stepper, a
# step whose first failing check is that stage's, once where u reaches the
# quantum (q u >= 1) and once where it reaches 0, found by a search over
# round numbers. _dopri_step runs at c = 1 from u = 1 with (v, f) given,
# _drift_step about u_star = 1 at omega = 1, d = 1 - q u_star, from (a, b)
# with rates (ka, kb) given.
_STAGE_CASES = [
    *[(_dopri_step, _DOPRI_RATES, stage, error, (1.0, q, 1e-9, 1e-9, 0.0, (1.0, v, f), h))
      for stage, error, q, v, f, h in [
          (2, DomainError, 0.0, -0.1, 0.0, 50.0), (2, SingularityError, _Q, 0.1, 0.0, 50.0),
          (3, DomainError, 0.0, 0.1, -0.1, 20.0), (3, SingularityError, _Q, 0.1, 0.1, 20.0),
          (4, DomainError, 0.0, 0.1, 0.0, 5.0), (4, SingularityError, _Q, 0.1, 0.0, 2.0),
          (5, DomainError, 0.0, 0.1, 0.2, 2.0), (5, SingularityError, _Q, 0.1, 0.0, 1.0),
          (6, DomainError, 0.0, 0.1, -0.2, 5.0), (6, SingularityError, _Q, 0.1, -50.0, 0.1),
          (7, DomainError, 0.0, 0.1, -20.0, 1.0), (7, SingularityError, _Q, 1.0, 2.0, 1.0)]],
    *[(_drift_step, _DRIFT_RATES, stage, error,
       (1.0, 1.0, 1.0 - _Q, _Q, g, 1e-9, 0.0, (a, b, ka, kb), h))
      for stage, error, g, a, b, ka, kb, h in [
          (2, DomainError, 0.0, 0.5, 0.0, 0.0, 1.0, 20.0),
          (2, SingularityError, 0.0, 0.5, 0.0, 0.0, 1.0, 5.0),
          (3, DomainError, 0.0, 0.5, 0.0, 0.5, -1.0, 50.0),
          (3, SingularityError, 0.0, 0.5, 0.0, 1.0, -1.0, 20.0),
          (4, DomainError, 0.0, 0.5, 0.0, 0.0, -1.0, 2.0),
          (4, SingularityError, 0.0, 0.5, 0.0, 0.0, 1.0, 1.0),
          (5, DomainError, 0.0, 0.5, 0.0, 0.0, -1.0, 1.0),
          (5, SingularityError, 0.0, 0.5, 0.0, 0.0, 1.0, 0.5),
          (6, DomainError, 0.0, 0.5, 0.0, 0.5, 0.0, 2.0),
          (6, SingularityError, 0.0, 0.5, 0.0, -1.0, 1.0, 1.0),
          (7, DomainError, 1.0, 0.5, 0.0, -2.0, 0.0, 2.0),
          (7, SingularityError, 1.0, 0.5, 0.5, 0.1, -1.0, 1.0)]],
]


@pytest.mark.parametrize("step, rates, stage, error, args", _STAGE_CASES,
                         ids=[f"{case[0].__name__}-stage{case[2]}-{case[3].__name__}"
                              for case in _STAGE_CASES])
def test_every_stage_check_refuses(step, rates, stage, error, args):
    # Each stage checks the point it evaluates the force at, and raises as
    # _forcing does: a stage that reaches u <= 0 is an escape, one that
    # reaches q u >= 1 a fall into the quantum.
    with pytest.raises(error) as caught:
        step(*args)
    frame = caught.tb
    while frame.tb_next is not None:
        frame = frame.tb_next
    assert frame.tb_frame.f_code is step.__code__
    bound = frame.tb_frame.f_locals
    assert next(i for i, rate in enumerate(rates, 2) if rate not in bound) == stage
    if error is DomainError:
        assert str(caught.value).startswith("inverse radius must be positive, got ")
    else:
        assert caught.value.quantum == _Q and 0 < caught.value.separation <= _Q
        assert str(caught.value).endswith(f"is at or below the space quantum {_Q!r} m")


def test_integrate_follows_an_escaping_orbit_to_its_asymptote():
    # At q = 0, h^2/(mu r_p) = 5.003 gives the hyperbola u = c (1 + e cos
    # theta) with e = 4.003, whose asymptote u = 0 lies at theta = 1.8233.
    # integrate follows it up to there, and a span past it fails on the
    # step that crosses, naming the cause.
    orbit = derive_orbit(PlanetElements(name="Fast", a=1.495978707e11, e=0.5,
                                        tau_days=200.0))
    model = QuantizedModel(quantum=0.0, mu=orbit.mu, h=orbit.h)
    u0 = 1.0 / orbit.r_p
    c = orbit.mu / (orbit.h * orbit.h)
    ecc = u0 / c - 1.0
    assert 1.8 < math.acos(-1.0 / ecc) < 1.83
    traj = integrate(model, u0, 0.0, 1.8)
    assert traj.theta[-1] == 1.8
    for theta, u in zip(traj.theta, traj.u):
        assert abs(u - c * (1.0 + ecc * math.cos(theta))) <= 1e-11 * u0
    with pytest.raises(DomainError, match=r"^inverse radius must be positive, got .*: "
                                          r"the orbit escapes"):
        integrate(model, u0, 0.0, 20.0)


def test_trajectory_validation():
    # out of order is refused; a wide gap is not, as no reader needs it narrow
    with pytest.raises(DomainError, match="strictly increasing"):
        Trajectory(theta=[0.0, 1.0, 0.5], u=[1e-11] * 3, n_accepted=0, n_rejected=0)
    traj = Trajectory(theta=[0.0, math.pi], u=[1e-11] * 2, n_accepted=1, n_rejected=0)
    assert traj.theta.tolist() == [0.0, math.pi] and len(traj) == 2
    # theta and u of different lengths, such as 4 angles with 2 or 5 values
    theta = [0.0, 0.1, 0.2, 0.3]
    for u in ([1e-11] * 2, [1e-11] * 5):
        with pytest.raises(DomainError, match="differ in length"):
            Trajectory(theta=theta, u=u, n_accepted=0, n_rejected=0)


def _merged_by_sort(thetas, us, rows):
    """The merge as a stable sort of the samples, then the rows, by theta,
    followed by the drop of each row within 1e-12 rad of the one kept before."""
    kept_thetas, kept_us, last = [], [], -math.inf
    for t, u in sorted([*zip(thetas, us), *rows], key=lambda row: row[0]):
        if not -1e-12 < t - last < 1e-12:
            last = t
            kept_thetas.append(t)
            kept_us.append(u)
    return kept_thetas, kept_us


def _merged(thetas, us, rows):
    return tuple(map(list, _merge_samples(thetas, us, rows)))


def test_core_sampling_check():
    # The sampling rules integrate's samples pass through: _merge_samples
    # merges the stencil rows and Trajectory refuses what is out of order,
    # steps back or is a single sample, also after a near-duplicate drop.
    for thetas in ([0.0, 1.0, 0.5], [0.0, 1.0, 1.0 - 1e-9], [0.0], [0.0, 5e-13]):
        with pytest.raises(DomainError):
            Trajectory(*_merge_samples(thetas, [1e-11] * len(thetas), []),
                       n_accepted=0, n_rejected=0)
    thetas, us = [0.0, 1.0, 2.0], [1.0, 2.0, 3.0]
    cases = {
        # a stencil row at a sample's theta comes after it, so it is dropped
        "tie": ([(1.0, 9.0)], ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])),
        # a row within 1e-12 rad of the sample kept before it is dropped
        "row after a sample": ([(1.0 + 5e-13, 9.0)], ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])),
        # and a sample within 1e-12 rad of the row kept before it
        "sample after a row": ([(1.0 - 5e-13, 9.0)], ([0.0, 1.0 - 5e-13, 2.0], [1.0, 9.0, 3.0])),
        # rows before the second sample and after the last one
        "ends": ([(0.25, 7.0), (0.5, 8.0), (2.5, 9.0), (3.0, 10.0)],
                 ([0.0, 0.25, 0.5, 1.0, 2.0, 2.5, 3.0], [1.0, 7.0, 8.0, 2.0, 3.0, 9.0, 10.0])),
        # a stencil of three rows, its first on the sample at 1
        "stencil": ([(1.0, 9.0), (1.001, 9.5), (1.002, 9.25)],
                    ([0.0, 1.0, 1.001, 1.002, 2.0], [1.0, 2.0, 9.5, 9.25, 3.0])),
    }
    for name, (rows, expected) in cases.items():
        assert _merged(thetas, us, rows) == _merged_by_sort(thetas, us, rows) == expected, name


# theta on a grid of quarters, some 5e-13 rad off it, so that rows tie,
# fall within 1e-12 rad of one another, or do neither
_NEAR_QUARTERS = st.tuples(st.integers(0, 12), st.sampled_from([0.0, 5e-13, -5e-13]))


@settings(max_examples=200, deadline=None)
@given(samples=st.lists(_NEAR_QUARTERS, min_size=1, max_size=10),
       rows=st.lists(_NEAR_QUARTERS, max_size=8))
def test_merge_matches_a_stable_sort(samples, rows):
    thetas = sorted(k / 4.0 + off for k, off in samples)
    us = [float(i) for i in range(len(thetas))]
    rows = [(t, -1.0 - i) for i, t in enumerate(sorted(k / 4.0 + off for k, off in rows))]
    assert _merged(thetas, us, rows) == _merged_by_sort(thetas, us, rows)


@st.composite
def _kepler_planet(draw):
    a = draw(st.floats(0.3, 2.0)) * AU
    e = draw(st.floats(0.05, 0.9))
    tau_days = 2.0 * math.pi * math.sqrt(a ** 3 / GM_SUN) / 86400.0
    return PlanetElements(name="P", a=a, e=e, tau_days=tau_days)


@settings(max_examples=40, deadline=None)
@given(el=_kepler_planet(), n=st.integers(2, 6), delta=st.floats(0.0, 300.0),
       rule=st.sampled_from(list(QuantumRule)), tol=st.sampled_from([1e-10, 1e-12]))
def test_perihelion_count_over_n_periods(el, n, delta, rule, tol):
    # From a perihelion start over n radial periods (the export's theta_max
    # = n 2 pi/x + 0.5) every later perihelion is found once: none lost, none
    # repeated. A perihelion is an interior maximum of u over the samples.
    u = _export(el, delta, rule, n, tol).u
    assert sum(a < b >= c for a, b, c in zip(u, u[1:], u[2:])) == n

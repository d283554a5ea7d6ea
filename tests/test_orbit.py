import math

import numpy as np
import pytest

from qgrav import (DomainError, InsufficientSpanError, ModelBreakdownError,
                   Provenance, QuantumRule, QuantizedModel, SingularityError, Trajectory,
                   analytic_orbit, binet_rhs, closed_form_radius, derive_orbit,
                   detect_perihelia, integrate, measured_precession,
                   orbit_params, quantum_from_error, rad_to_arcsec)

GM = 1.32712440018e20


def _mercury_model(mercury_orbit, delta=0.0398):
    q = quantum_from_error(delta, mercury_orbit)
    return QuantizedModel(quantum=q, mu=mercury_orbit.mu, h=mercury_orbit.h), q


def test_binet_rhs_newtonian_limit(mercury_orbit):
    model = QuantizedModel(quantum=0.0, mu=mercury_orbit.mu, h=mercury_orbit.h)
    forcing = binet_rhs(model)
    c = mercury_orbit.mu / mercury_orbit.h ** 2
    for u in (1e-12, 2e-11, 5e-11):
        assert forcing(u) == pytest.approx(-u + c, rel=1e-15)


def test_binet_rhs_first_order_expansion(mercury_orbit):
    # the exact forcing matches -u + c(1 + q u) up to O((q u)^2)
    model, q = _mercury_model(mercury_orbit)
    forcing = binet_rhs(model)
    c = mercury_orbit.mu / mercury_orbit.h ** 2
    for u in (1e-11, 2.1738e-11, 4e-11):
        exact = forcing(u)
        first_order = -u + c * (1.0 + q * u)
        assert abs(exact - first_order) <= 2.0 * c * (q * u) ** 2


def test_binet_rhs_frozen_point(mercury_orbit):
    # single-point oracle: independent arithmetic at u = 1/r_p
    model, q = _mercury_model(mercury_orbit)
    forcing = binet_rhs(model)
    u = 1.0 / mercury_orbit.r_p
    expected = -u + (mercury_orbit.mu / mercury_orbit.h ** 2) / (1.0 - q * u)
    got = forcing(u)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(-3.707747858585475e-12, rel=1e-12)


def test_binet_rhs_singularity(mercury_orbit):
    # an orbitless model cannot drive the orbit equation
    with pytest.raises(DomainError):
        binet_rhs(QuantizedModel(quantum=1e10, mu=mercury_orbit.mu, h=None))
    forcing = binet_rhs(QuantizedModel(quantum=1e9, mu=mercury_orbit.mu,
                                       h=mercury_orbit.h))
    with pytest.raises(SingularityError):
        forcing(1.0 / 1e8)  # radius below the quantum
    with pytest.raises(DomainError):
        forcing(-1.0)


def test_integrate_newtonian_conic(mercury_orbit):
    # known exact solution: u = (1 + e cos theta)/p
    sol = analytic_orbit(0.0, mercury_orbit)
    model = QuantizedModel(quantum=0.0, mu=mercury_orbit.mu, h=mercury_orbit.h)
    for tol in (1e-12, 1e-9):
        traj = integrate(model, 1.0 / mercury_orbit.r_p, 0.0, 20.0 * math.pi, tol=tol)
        u_conic = (1.0 + sol.amplitude * sol.semi_latus * np.cos(traj.theta)) / sol.semi_latus
        dev = np.max(np.abs(traj.u - u_conic) / u_conic)
        assert dev <= 100.0 * tol


def test_integrate_circular_fixed_point(mercury_orbit):
    model = QuantizedModel(quantum=0.0, mu=mercury_orbit.mu, h=mercury_orbit.h)
    u_circ = mercury_orbit.mu / mercury_orbit.h ** 2
    traj = integrate(model, u_circ, 0.0, 10.0 * math.pi, tol=1e-12)
    assert np.max(np.abs(traj.u - u_circ)) <= 1e-12 * u_circ


def test_integrate_matches_closed_form(mercury_orbit):
    # analytic rosette as oracle; dropped higher-order terms are ~1e-13 here
    model, q = _mercury_model(mercury_orbit)
    sol = analytic_orbit(q, mercury_orbit)
    traj = integrate(model, 1.0 / mercury_orbit.r_p, 0.0, 20.0 * math.pi, tol=1e-12)
    r_num = 1.0 / traj.u
    r_ana = closed_form_radius(sol, traj.theta)
    assert np.max(np.abs(r_num - r_ana) / r_ana) <= 1e-6


def test_integrate_validation(mercury_orbit):
    model = QuantizedModel(quantum=0.0, mu=mercury_orbit.mu, h=mercury_orbit.h)
    u0 = 1.0 / mercury_orbit.r_p
    with pytest.raises(DomainError):
        integrate(model, u0, 0.0, -1.0)
    with pytest.raises(DomainError):
        integrate(model, u0, 0.0, 10.0, tol=1e-3)
    with pytest.raises(DomainError):
        integrate(model, u0, 0.0, 10.0, tol=1e-15)
    with pytest.raises(DomainError):
        integrate(model, -u0, 0.0, 10.0)


def test_trajectory_shape_and_metadata(mercury_orbit):
    model, _ = _mercury_model(mercury_orbit)
    traj = integrate(model, 1.0 / mercury_orbit.r_p, 0.0, 4.0 * math.pi, tol=1e-10)
    gaps = np.diff(traj.theta)
    assert np.all(gaps > 0)
    assert np.max(gaps) < math.pi / 8.0
    assert traj.tol == 1e-10
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
    assert np.array_equal(a.du, b.du)
    assert (a.n_accepted, a.n_rejected) == (b.n_accepted, b.n_rejected)


def _analytic_trajectory(p, e, x, periods, samples_per_period=4096):
    theta = np.arange(0, periods * samples_per_period + 1) * (2.0 * math.pi / x) / samples_per_period
    u = (1.0 + e * np.cos(x * theta)) / p
    du = -e * x * np.sin(x * theta) / p
    return Trajectory(theta=theta, u=u, du=du, tol=0.0, n_accepted=0, n_rejected=0)


def test_detect_perihelia_closed_ellipse():
    traj = _analytic_trajectory(p=5.546074e10, e=0.20563069, x=1.0, periods=5)
    series = detect_perihelia(traj)
    assert len(series.angles) >= 3
    assert np.max(np.abs(series.advances)) < 1e-9


def test_detect_perihelia_rosette():
    x = 1.0 - 8.0025e-08
    traj = _analytic_trajectory(p=5.546074e10, e=0.20563069, x=x, periods=5)
    series = detect_perihelia(traj)
    expected = 2.0 * math.pi * (1.0 - x) / x  # generator is the oracle
    assert expected == pytest.approx(5.0281e-07, rel=1e-3)
    assert np.all(np.abs(series.advances - expected) < 1e-9)


def test_detect_perihelia_insufficient_span():
    # monotone inward spiral: du never crosses + to -
    theta = np.linspace(0.0, 20.0, 500)
    u = 1e-11 * (1.0 + 0.01 * theta)
    du = np.full_like(theta, 1e-13)
    traj = Trajectory(theta=theta, u=u, du=du, tol=0.0, n_accepted=0, n_rejected=0)
    with pytest.raises(InsufficientSpanError):
        detect_perihelia(traj)
    # a single passage cannot define an advance either
    short = _analytic_trajectory(p=5.546074e10, e=0.2, x=1.0, periods=1)
    with pytest.raises(InsufficientSpanError):
        detect_perihelia(short)


def test_detect_perihelia_deterministic(mercury_orbit):
    model, _ = _mercury_model(mercury_orbit)
    traj = integrate(model, 1.0 / mercury_orbit.r_p, 0.0, 8.0 * math.pi, tol=1e-12)
    s1 = detect_perihelia(traj)
    s2 = detect_perihelia(traj)
    assert np.array_equal(s1.angles, s2.angles)
    assert np.array_equal(s1.advances, s2.advances)


def test_advance_positivity(mercury_orbit):
    model, _ = _mercury_model(mercury_orbit)
    theta_max = 5.0 * 2.0 * math.pi + 0.5
    traj = integrate(model, 1.0 / mercury_orbit.r_p, 0.0, theta_max, tol=1e-12)
    series = detect_perihelia(traj)
    assert len(series.advances) >= 3
    assert np.all(series.advances > 0.0)


def test_measured_precession_mercury(mercury, mercury_orbit):
    q = quantum_from_error(0.0398, mercury_orbit)
    _, x = orbit_params(q, mercury_orbit)
    analytic = 2.0 * math.pi * (1.0 - x) / x
    result = measured_precession(mercury, 0.0398, n_orbits=20, tol=1e-12)
    assert result.provenance is Provenance.NUMERIC
    assert result.per_orbit_rad == pytest.approx(analytic, rel=1e-2)
    assert result.per_orbit_rad == pytest.approx(5.028e-07, rel=1e-2)
    assert result.per_century_arcsec == pytest.approx(43.06, rel=1e-2)


def test_measured_precession_newtonian_closure(planets):
    for el in planets.values():
        result = measured_precession(el, 0.0, n_orbits=3, tol=1e-12)
        assert abs(result.per_orbit_rad) < 1e-9


def test_measured_precession_keeps_every_perihelion(mercury):
    # At tol 1e-10 an accepted step lands next to a stencil point near one
    # Mercury perihelion; fitting through both lost that passage, and the
    # mean advance gained 2 pi / 49 = 0.128 rad.
    result = measured_precession(mercury, 0.0, n_orbits=50, tol=1e-10)
    assert abs(result.per_orbit_rad) < 1e-9


@pytest.mark.parametrize("tol", [1e-12, 1e-10])
@pytest.mark.parametrize("delta", [0.0, 0.0398])
def test_measured_precession_equals_array_path(planets, delta, tol):
    # measured_precession runs on lists and averages with fsum; the array
    # path (integrate, detect_perihelia) finds the same advances. ndarray.mean
    # sums pairwise, so it may differ from fsum within summation roundoff.
    from qgrav.orbit import _perihelion_start
    for el in planets.values():
        _, model, u0, theta_max = _perihelion_start(el, delta, QuantumRule.PERIHELION, 51)
        series = detect_perihelia(integrate(model, u0, 0.0, theta_max, tol=tol))
        result = measured_precession(el, delta, tol=tol)
        advances = series.advances.tolist()
        assert result.per_orbit_rad == math.fsum(advances) / len(advances)
        roundoff = 1e-14 * max(abs(a) for a in advances)
        assert result.per_orbit_rad == pytest.approx(float(series.advances.mean()),
                                                     rel=1e-15, abs=roundoff)


def test_measured_precession_breakdown(mercury):
    # epsilon = 0.237 still gives a bounded exact orbit; 0.241 and 0.40 do not
    result = measured_precession(mercury, 5.9e4, n_orbits=3, tol=1e-10)
    assert result.per_orbit_rad > 0.0
    for delta in (6e4, 1e5):
        with pytest.raises(ModelBreakdownError, match="unbounded"):
            measured_precession(mercury, delta, n_orbits=3, tol=1e-10)


def test_measured_precession_validation(mercury):
    with pytest.raises(DomainError):
        measured_precession(mercury, 0.0398, n_orbits=1)


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


def test_trajectory_validation():
    theta = np.array([0.0, 1.0, 0.5])
    ones = np.ones(3) * 1e-11
    with pytest.raises(DomainError):
        Trajectory(theta=theta, u=ones, du=ones, tol=0.0, n_accepted=0, n_rejected=0)
    sparse = np.array([0.0, math.pi])
    with pytest.raises(DomainError):
        Trajectory(theta=sparse, u=ones[:2], du=ones[:2], tol=0.0,
                   n_accepted=0, n_rejected=0)


def test_core_sampling_check():
    # The plain-float core serves `qgrav orbit` without building a
    # Trajectory, so it enforces the same sampling rules itself.
    from qgrav.orbit import _checked_samples
    row = (1e-11, 0.0)
    for thetas in ([0.0, 1.0, 0.5], [0.0, 1.0, 1.0 - 1e-9], [0.0, math.pi / 8],
                   [0.0], [0.0, 5e-13]):
        with pytest.raises(DomainError):
            _checked_samples([(t, *row) for t in thetas])
    # A stencil point within 1e-12 rad of a step is dropped, the first kept.
    kept = _checked_samples([(0.0, 1.0, 2.0), (5e-13, 3.0, 4.0),
                             (math.pi / 8 - 1e-9, 5.0, 6.0)])
    assert kept == ([0.0, math.pi / 8 - 1e-9], [1.0, 5.0], [2.0, 6.0])

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qgrav import (ARCSEC_PER_RAD, AnalyticOrbit, DomainError,
                   ModelBreakdownError, PlanetElements, Provenance,
                   QuantumRule, amplitude_from_perihelion, analytic_orbit,
                   closed_form_radius, derive_orbit, orbit_params,
                   planet_precession, precession_per_century,
                   precession_per_orbit, quantum_from_error)

GM = 1.32712440018e20

# Full analytic chain at delta = 0.0398 and friends, from the direct
# arithmetic oracle over the bundled elements.
PER_CENTURY = {
    ("Mercury", 0.01): 10.819157443300954,
    ("Mercury", 0.0398): 43.06025049435802,
    ("Mercury", 0.05): 54.09579374245728,
    ("Venus", 0.01): 5.072269308306938,
    ("Venus", 0.0398): 20.187634019786064,
    ("Venus", 0.05): 25.361350205364804,
    ("Earth", 0.01): 3.089887949220223,
    ("Earth", 0.0398): 12.297755348522164,
    ("Earth", 0.05): 15.449441956188004,
}


def test_quantum_from_error_rules(mercury_orbit):
    q_peri = quantum_from_error(0.0398, mercury_orbit, QuantumRule.PERIHELION)
    q_semi = quantum_from_error(0.0398, mercury_orbit, QuantumRule.SEMIMINOR)
    # oracle: converted angle times the chosen length scale
    assert q_peri == pytest.approx(0.0398 * math.pi / 648000.0 * mercury_orbit.r_p, rel=1e-15)
    assert q_semi == pytest.approx(0.0398 * math.pi / 648000.0 * mercury_orbit.b, rel=1e-15)
    assert q_peri == pytest.approx(8876.218027342331, rel=1e-12)
    assert q_semi == pytest.approx(10935.128228963638, rel=1e-12)
    assert q_peri == pytest.approx(8.8762e3, rel=1e-3)
    assert q_semi == pytest.approx(1.0935e4, rel=1e-3)


def test_quantum_from_error_zero_and_negative(mercury_orbit):
    assert quantum_from_error(0.0, mercury_orbit) == 0.0
    assert quantum_from_error(0.0, mercury_orbit, QuantumRule.SEMIMINOR) == 0.0
    with pytest.raises(DomainError):
        quantum_from_error(-0.01, mercury_orbit)


def test_orbit_params_newtonian_limit(mercury_orbit):
    p, x = orbit_params(0.0, mercury_orbit)
    assert x == 1.0
    assert p == mercury_orbit.h ** 2 / mercury_orbit.mu


def test_orbit_params_mercury(mercury_orbit):
    q = quantum_from_error(0.0398, mercury_orbit)
    p, x = orbit_params(q, mercury_orbit)
    eps = q * mercury_orbit.mu / mercury_orbit.h ** 2
    assert eps == pytest.approx(1.6004503581674794e-07, rel=1e-12)
    assert eps == pytest.approx(1.6005e-07, rel=1e-3)
    assert 1.0 - x == pytest.approx(8.002252105399066e-08, rel=1e-9)
    assert 1.0 - x == pytest.approx(8.0025e-08, rel=1e-3)
    assert p == pytest.approx(55460743043.04568, rel=1e-12)
    assert p == pytest.approx(5.5459e10, rel=1e-3)
    # at this epsilon p coincides with the classical semi-latus a(1-e^2)
    assert p == pytest.approx(5.79092e10 * (1.0 - 0.20563069 ** 2), rel=1e-4)


def test_orbit_params_breakdown(mercury_orbit):
    q_edge = mercury_orbit.h ** 2 / mercury_orbit.mu
    with pytest.raises(ModelBreakdownError):
        orbit_params(q_edge * (1.0 + 1e-12), mercury_orbit)
    with pytest.raises(ModelBreakdownError):
        orbit_params(2.0 * q_edge, mercury_orbit)
    # epsilon = 0.3 < 1, past the 1/4 where the exact orbit stops being bounded
    with pytest.raises(ModelBreakdownError, match="unbounded"):
        orbit_params(0.3 * q_edge, mercury_orbit)


def test_breakdown_box_passes():
    # The row loops skip the rule inside eps < _EPS_BOX, x_p < _X_BOX; the
    # rule itself must pass there, up to the corners.
    from qgrav.precession import _EPS_BOX, _X_BOX, _check_bounded
    for eps in (math.nextafter(_EPS_BOX, 0.0), 1e-3, 1e-7, 5e-324):
        for x_p in (math.nextafter(_X_BOX, 0.0), 0.5, 1e-7, 0.0):
            _check_bounded(1.0, eps, x_p)
    # just outside the box in x_p the rule still passes at small eps, and
    # refuses a perihelion at or past the barrier
    _check_bounded(1.0, 1e-3, _X_BOX)
    with pytest.raises(ModelBreakdownError):
        _check_bounded(1.0, 1e-3, 0.999)


def test_orbit_params_exactness(mercury_orbit, venus, earth):
    rng = np.random.default_rng(21)
    orbits = [mercury_orbit, derive_orbit(venus), derive_orbit(earth)]
    for orbit in orbits:
        for _ in range(100):
            q = float(10.0 ** rng.uniform(0, 7))
            p, x = orbit_params(q, orbit)
            eps = q * orbit.mu / orbit.h ** 2
            assert x * x + eps == pytest.approx(1.0, rel=1e-13)
            assert p * orbit.mu + q * orbit.mu == pytest.approx(orbit.h ** 2, rel=1e-13)


def test_amplitude_from_perihelion(mercury_orbit):
    q = quantum_from_error(0.0398, mercury_orbit)
    p, _ = orbit_params(q, mercury_orbit)
    amp = amplitude_from_perihelion(p, mercury_orbit.r_p)
    assert amp == pytest.approx(3.707748451992882e-12, rel=1e-12)
    assert amp == pytest.approx(3.7083e-12, rel=1e-3)
    # circular: perihelion at the semi-latus gives zero amplitude
    assert amplitude_from_perihelion(p, p) == 0.0
    with pytest.raises(DomainError):
        amplitude_from_perihelion(-1.0, 1.0)


def test_amplitude_round_trip_random():
    rng = np.random.default_rng(22)
    for _ in range(200):
        p = float(10.0 ** rng.uniform(8, 12))
        r_p = p * float(rng.uniform(0.5, 1.0))
        sol = AnalyticOrbit(semi_latus=p, freq_ratio=1.0,
                            amplitude=amplitude_from_perihelion(p, r_p))
        assert closed_form_radius(sol, 0.0) == pytest.approx(r_p, rel=1e-12)


def test_closed_form_radius_circle():
    sol = AnalyticOrbit(semi_latus=3.0e10, freq_ratio=1.0, amplitude=0.0)
    for theta in (0.0, 1.0, 10.0, -4.0):
        assert closed_form_radius(sol, theta) == 3.0e10


def test_closed_form_radius_periodicity(mercury_orbit):
    q = quantum_from_error(0.0398, mercury_orbit)
    sol = analytic_orbit(q, mercury_orbit)
    period = 2.0 * math.pi / sol.freq_ratio
    rng = np.random.default_rng(23)
    for _ in range(200):
        theta = float(rng.uniform(-100.0, 100.0))
        assert closed_form_radius(sol, theta + period) == pytest.approx(
            closed_form_radius(sol, theta), rel=1e-12)


def test_closed_form_radius_unbound():
    sol = AnalyticOrbit(semi_latus=1.0, freq_ratio=1.0, amplitude=1.5)
    assert not sol.bound
    with pytest.raises(DomainError):
        closed_form_radius(sol, 0.0)


def test_closed_form_radius_array(mercury_orbit):
    sol = analytic_orbit(0.0, mercury_orbit)
    theta = np.linspace(0.0, 10.0, 50)
    values = closed_form_radius(sol, theta)
    assert values.shape == theta.shape
    assert values[0] == pytest.approx(mercury_orbit.r_p, rel=1e-12)


def test_perihelion_placement(mercury_orbit):
    # Numeric minimization oracle: the radius minimum in [pi/x, 3pi/x] found
    # with no reference to the claimed location. The minimum is flat at the
    # sqrt(eps) level, so it is located as the midpoint of a symmetric level
    # crossing, each crossing being a steep, well-conditioned root.
    q = quantum_from_error(0.0398, mercury_orbit)
    sol = analytic_orbit(q, mercury_orbit)
    x = sol.freq_ratio
    lo, hi = math.pi / x, 3.0 * math.pi / x
    grid = np.linspace(lo, hi, 20001)
    radii = closed_form_radius(sol, grid)
    i_min = int(np.argmin(radii))
    target = radii[i_min] * (1.0 + 1e-6)

    def level(theta):
        return closed_form_radius(sol, theta) - target

    left = brentq(level, grid[max(np.flatnonzero(radii[:i_min] > target))], grid[i_min],
                  xtol=1e-12)
    right_candidates = np.flatnonzero(radii[i_min:] > target)
    right = brentq(level, grid[i_min], grid[i_min + int(right_candidates.min())],
                   xtol=1e-12)
    found = 0.5 * (left + right)
    assert found == pytest.approx(2.0 * math.pi / x, rel=1e-9)


def test_precession_per_orbit_values():
    assert precession_per_orbit(1.0) == 0.0
    assert precession_per_orbit(0.5) == pytest.approx(2.0 * math.pi, rel=1e-15)
    x = 1.0 - 8.0025e-08
    got = precession_per_orbit(x)
    # oracle: 2 pi (1 - x)/x with the exact stored 1 - x
    assert got == pytest.approx(2.0 * math.pi * (1.0 - x) / x, rel=1e-14)
    assert got == pytest.approx(5.0281e-07, rel=1e-3)


def test_precession_per_orbit_domain():
    for bad in (0.0, -0.5, 1.0 + 1e-9, 2.0, math.nan):
        with pytest.raises(DomainError):
            precession_per_orbit(bad)


def test_precession_per_century_values(mercury, venus):
    mercury_orbit = derive_orbit(mercury)
    venus_orbit = derive_orbit(venus)
    assert precession_per_century(0.0, mercury_orbit) == 0.0
    got = precession_per_century(5.0281e-07, mercury_orbit)
    assert got == pytest.approx(5.0281e-07 * mercury_orbit.orbits_per_century
                                * ARCSEC_PER_RAD, rel=1e-14)
    assert got == pytest.approx(43.06, abs=0.1)
    got_venus = precession_per_century(6.0210e-07, venus_orbit)
    assert got_venus == pytest.approx(20.19, abs=0.05)


def test_planet_precession_frozen(planets):
    for (name, delta), expected in PER_CENTURY.items():
        result = planet_precession(planets[name], delta)
        assert result.per_century_arcsec == pytest.approx(expected, rel=1e-12), (name, delta)
        assert result.provenance is Provenance.ANALYTIC


def test_planet_precession_table_neighbourhood(planets):
    # printed-table agreement is pinned at acceptance tolerances in
    # test_acceptance; here just the headline spot values
    assert planet_precession(planets["Mercury"], 0.0398).per_century_arcsec == pytest.approx(43.06, abs=0.01)
    assert planet_precession(planets["Venus"], 0.0398).per_century_arcsec == pytest.approx(20.19, abs=0.01)
    assert planet_precession(planets["Earth"], 0.01).per_century_arcsec == pytest.approx(3.09, abs=0.01)
    assert planet_precession(planets["Mercury"], 0.05).per_century_arcsec == pytest.approx(54.10, abs=0.01)


def test_planet_precession_zero_limit(planets):
    for el in planets.values():
        for rule in QuantumRule:
            result = planet_precession(el, 0.0, rule)
            assert result.per_orbit_rad == 0.0
            assert result.per_century_arcsec == 0.0


def test_planet_precession_linearity(planets):
    deltas = np.linspace(1e-3, 0.05, 25)
    for el in planets.values():
        ratios = [planet_precession(el, float(d)).per_century_arcsec / float(d)
                  for d in deltas]
        spread = (max(ratios) - min(ratios)) / ratios[0]
        assert spread < 1e-6


def test_planet_precession_monotone_in_delta(mercury):
    values = [planet_precession(mercury, d).per_century_arcsec
              for d in np.linspace(0.0, 0.05, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_rule_ordering(planets):
    for el in planets.values():
        peri = planet_precession(el, 0.0398, QuantumRule.PERIHELION).per_century_arcsec
        semi = planet_precession(el, 0.0398, QuantumRule.SEMIMINOR).per_century_arcsec
        assert peri < semi  # all bundled planets are eccentric
    circular = PlanetElements(name="Round", a=1e11, e=0.0, tau_days=300.0)
    peri = planet_precession(circular, 0.0398, QuantumRule.PERIHELION).per_century_arcsec
    semi = planet_precession(circular, 0.0398, QuantumRule.SEMIMINOR).per_century_arcsec
    assert peri == semi


def test_planet_precession_breakdown(mercury):
    with pytest.raises(ModelBreakdownError):
        planet_precession(mercury, 1e6)


def test_result_consistency(planets):
    for el in planets.values():
        orbit = derive_orbit(el)
        result = planet_precession(el, 0.0398)
        assert result.per_century_arcsec == pytest.approx(
            result.per_orbit_rad * orbit.orbits_per_century * ARCSEC_PER_RAD, rel=1e-13)


def test_analytic_orbit_validation():
    with pytest.raises(DomainError):
        AnalyticOrbit(semi_latus=0.0, freq_ratio=1.0, amplitude=0.0)
    with pytest.raises(DomainError):
        AnalyticOrbit(semi_latus=1.0, freq_ratio=1.5, amplitude=0.0)
    with pytest.raises(DomainError):
        AnalyticOrbit(semi_latus=1.0, freq_ratio=0.0, amplitude=0.0)

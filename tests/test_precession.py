import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrav import (ARCSEC_PER_RAD, DomainError, ModelBreakdownError, PlanetElements,
                   Provenance, QuantumRule, arcsec_to_rad, derive_orbit, fit_delta,
                   invert_delta, load_observations, measured_precession, orbit_params,
                   planet_precession, quantum_from_error, rad_to_arcsec, sweep_delta)

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


def _epsilon_at(eps, x_p):
    """forces._epsilon at this eps and, within one ulp, this x_p: with
    quantum 1 and h 1, eps = mu exactly and x_p = 1/r_p for r_p = 1/x_p."""
    from qgrav.forces import _epsilon
    r_p = 1.0 / x_p if x_p else math.inf
    assert abs(1.0 / r_p - x_p) <= math.ulp(x_p)
    return _epsilon(1.0, eps, 1.0, r_p)


def test_breakdown_box_passes():
    # The row loops skip the rule inside eps < _EPS_BOX, x_p < _X_BOX; the
    # rule itself must pass there, up to the corners.
    from qgrav.forces import _EPS_BOX, _X_BOX
    for eps in (math.nextafter(_EPS_BOX, 0.0), 1e-3, 1e-7, 5e-324):
        for x_p in (math.nextafter(_X_BOX, 0.0), 0.5, 1e-7, 0.0):
            assert _epsilon_at(eps, x_p) == eps
    # just outside the box in x_p the rule still passes at small eps, and
    # refuses a perihelion at or past the barrier
    assert _epsilon_at(1e-3, _X_BOX) == 1e-3
    with pytest.raises(ModelBreakdownError):
        _epsilon_at(1e-3, 0.999)


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


# Three numbers decide an advance per orbit: eps, e and beta = h^2/(mu p),
# p = a(1 - e^2). Scaling a by lam and tau by lam^1.5 leaves all three, and
# so the advance, unchanged up to the rounding of the scaled elements. The
# bounds below are the largest differences measured over random draws of
# these strategies: 1.78e-15 relative over 2e6 analytic draws, 3.4e-14 over
# 1.5e5 numeric ones, and 7 ulps over 2e6 draws of the eps property.
_BUNDLED = st.sampled_from(["Mercury", "Venus", "Earth"])
_RULES = st.sampled_from(list(QuantumRule))
_SCALES = st.floats(-6.0, 12.0).map(lambda k: 10.0 ** k)
_DELTAS = st.one_of(st.just(0.0), st.floats(1e-6, 3e4))


def _scaled(el, lam):
    return PlanetElements(el.name, el.a * lam, el.e, el.tau_days * lam ** 1.5)


def _relative_gap(x, y):
    return abs(x - y) / x if x else abs(y)


@settings(max_examples=200, deadline=None)
@given(name=_BUNDLED, rule=_RULES, lam=_SCALES, delta=_DELTAS)
def test_planet_precession_is_scale_invariant(planets, name, rule, lam, delta):
    el = planets[name]
    advance = planet_precession(el, delta, rule).per_orbit_rad
    scaled = planet_precession(_scaled(el, lam), delta, rule).per_orbit_rad
    assert _relative_gap(advance, scaled) <= 2e-15


@settings(max_examples=100, deadline=None)
@given(name=_BUNDLED, rule=_RULES, lam=_SCALES, delta=_DELTAS)
def test_measured_precession_is_scale_invariant(planets, name, rule, lam, delta):
    el = planets[name]
    advance = measured_precession(el, delta, rule, n_orbits=3, tol=1e-12).per_orbit_rad
    scaled = measured_precession(_scaled(el, lam), delta, rule, n_orbits=3,
                                 tol=1e-12).per_orbit_rad
    assert _relative_gap(advance, scaled) <= 4e-14


@settings(max_examples=200, deadline=None)
@given(name=_BUNDLED, rule=_RULES, delta=_DELTAS)
def test_advance_is_decided_by_eps_e_and_beta(planets, name, rule, delta):
    # eps = delta_rad/((1 + e) beta) under the perihelion rule, since
    # q = delta_rad a(1 - e), and delta_rad/(sqrt(1 - e^2) beta) under the
    # semi-minor rule, since q = delta_rad a sqrt(1 - e^2)
    from qgrav.precession import _advance_from_eps
    el = planets[name]
    orbit = derive_orbit(el)
    e = el.e
    beta = orbit.h * orbit.h / (orbit.mu * el.a * (1.0 - e * e))
    length = 1.0 + e if rule is QuantumRule.PERIHELION else math.sqrt(1.0 - e * e)
    expected = _advance_from_eps(arcsec_to_rad(delta) / (length * beta))
    advance = planet_precession(el, delta, rule).per_orbit_rad
    assert abs(advance - expected) <= 7 * math.ulp(expected)


def test_planet_precession_frozen(planets):
    for (name, delta), expected in PER_CENTURY.items():
        result = planet_precession(planets[name], delta)
        assert result.per_century_arcsec == pytest.approx(expected, rel=1e-12), (name, delta)
        assert result.provenance is Provenance.ANALYTIC


def test_planet_precession_zero_limit(planets):
    for el in planets.values():
        for rule in QuantumRule:
            result = planet_precession(el, 0.0, rule)
            assert result.per_orbit_rad == 0.0
            assert result.per_century_arcsec == 0.0


def test_rule_ordering(planets):
    for el in planets.values():
        peri = planet_precession(el, 0.0398, QuantumRule.PERIHELION).per_century_arcsec
        semi = planet_precession(el, 0.0398, QuantumRule.SEMIMINOR).per_century_arcsec
        assert peri < semi  # all bundled planets are eccentric
    circular = PlanetElements(name="Round", a=1e11, e=0.0, tau_days=300.0)
    peri = planet_precession(circular, 0.0398, QuantumRule.PERIHELION).per_century_arcsec
    semi = planet_precession(circular, 0.0398, QuantumRule.SEMIMINOR).per_century_arcsec
    assert peri == semi


def test_result_consistency(planets):
    for el in planets.values():
        orbit = derive_orbit(el)
        result = planet_precession(el, 0.0398)
        assert result.per_century_arcsec == pytest.approx(
            result.per_orbit_rad * orbit.orbits_per_century * ARCSEC_PER_RAD, rel=1e-13)


# Every function that takes a quantum rule, called on the bundled data.
# measured_precession integrates, so it runs on the fewest orbits it takes.
RULE_READERS = {
    "planet_precession": lambda p, rule: planet_precession(p["Mercury"], 0.0398, rule),
    "quantum_from_error": lambda p, rule: quantum_from_error(
        0.0398, derive_orbit(p["Mercury"]), rule),
    "invert_delta": lambda p, rule: invert_delta(p["Mercury"], 43.11, rule),
    "sweep_delta": lambda p, rule: sweep_delta(p["Venus"], 0.01, 0.05, 3, rule),
    "fit_delta": lambda p, rule: fit_delta(load_observations(), rule, list(p.values())),
    "measured_precession": lambda p, rule: measured_precession(
        p["Mercury"], 0.0398, rule, n_orbits=2),
}


@pytest.mark.parametrize("reader", RULE_READERS)
@pytest.mark.parametrize("rule", list(QuantumRule))
def test_a_rule_value_reads_as_its_member(planets, reader, rule):
    by_value = RULE_READERS[reader](planets, rule.value)
    assert repr(by_value) == repr(RULE_READERS[reader](planets, rule))


@pytest.mark.parametrize("reader", RULE_READERS)
@pytest.mark.parametrize("rule", [None, "bogus", "Perihelion", 0])
def test_anything_else_is_not_a_rule(planets, reader, rule):
    with pytest.raises(DomainError, match="quantum rule must be 'perihelion' or 'semiminor'"):
        RULE_READERS[reader](planets, rule)


# Every entry point that range-checks an angle, a quantum or a target, each
# given a value x in the checked argument.
HUGE_INT_READERS = {
    "planet_precession": lambda p, x: planet_precession(p["Mercury"], x),
    "quantum_from_error": lambda p, x: quantum_from_error(x, derive_orbit(p["Mercury"])),
    "orbit_params": lambda p, x: orbit_params(x, derive_orbit(p["Mercury"])),
    "measured_precession": lambda p, x: measured_precession(p["Mercury"], x, n_orbits=2),
    "invert_delta": lambda p, x: invert_delta(p["Mercury"], x),
    "sweep_delta": lambda p, x: sweep_delta(p["Mercury"], 0.0, x, 2),
    "arcsec_to_rad": lambda p, x: arcsec_to_rad(x),
    "rad_to_arcsec": lambda p, x: rad_to_arcsec(-x),
}


@pytest.mark.parametrize("reader", HUGE_INT_READERS)
def test_an_int_beyond_the_float_range_is_a_domain_error(planets, reader):
    # math.isfinite would raise OverflowError converting it to a float
    with pytest.raises(DomainError):
        HUGE_INT_READERS[reader](planets, 10**400)


@pytest.mark.parametrize("reader", HUGE_INT_READERS)
def test_an_int_in_the_float_range_reads_as_its_float(planets, reader):
    assert (HUGE_INT_READERS[reader](planets, 43)
            == HUGE_INT_READERS[reader](planets, 43.0))


def test_a_zero_int_delta_reads_as_zero(mercury):
    assert planet_precession(mercury, 0) == planet_precession(mercury, 0.0)

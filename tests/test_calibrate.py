import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrav import (CONSTANTS, DomainError, IngestionError, ModelBreakdownError,
                   Observation, PlanetElements, QuantumRule, derive_orbit,
                   fit_delta, invert_delta, load_observations,
                   planet_precession, sweep_delta)


def test_load_bundled_observations():
    obs = load_observations()
    by_planet = {o.planet: o for o in obs}
    assert by_planet["Mercury"].value_arcsec == 43.11
    assert by_planet["Mercury"].sigma_arcsec == 0.45
    assert by_planet["Venus"].value_arcsec == 8.4
    assert by_planet["Venus"].sigma_arcsec == 4.8
    assert by_planet["Earth"].value_arcsec == 5.0
    assert by_planet["Earth"].sigma_arcsec == 1.2


def test_load_observations_validation(tmp_path):
    good = {"observations": [
        {"planet": "Mercury", "value_arcsec": 43.0, "sigma_arcsec": 0.5}]}
    assert len(load_observations(io.StringIO(json.dumps(good)))) == 1
    bad_sigma = {"observations": [
        {"planet": "Mercury", "value_arcsec": 43.0, "sigma_arcsec": 0.0}]}
    with pytest.raises(IngestionError, match="sigma"):
        load_observations(io.StringIO(json.dumps(bad_sigma)))
    bad_fields = {"observations": [
        {"planet": "Mercury", "value_arcsec": 43.0, "sigma": 0.5}]}
    with pytest.raises(IngestionError, match="fields"):
        load_observations(io.StringIO(json.dumps(bad_fields)))
    with pytest.raises(IngestionError, match="not found"):
        load_observations(tmp_path / "nope.json")
    # True == 1, but a flag is not a version
    bad_version = {"schema_version": True, **good}
    with pytest.raises(IngestionError, match="schema_version"):
        load_observations(io.StringIO(json.dumps(bad_version)))


def test_load_observations_rejects_duplicate_planets():
    doc = {"observations": [
        {"planet": "Mercury", "value_arcsec": 43.0, "sigma_arcsec": 0.5},
        {"planet": "mercury", "value_arcsec": 40.0, "sigma_arcsec": 1.0}]}
    with pytest.raises(IngestionError, match="duplicate observation 'mercury'"):
        load_observations(io.StringIO(json.dumps(doc)))


def test_observation_validation():
    with pytest.raises(IngestionError):
        Observation(planet="X", value_arcsec=1.0, sigma_arcsec=-0.1)
    with pytest.raises(IngestionError):
        Observation(planet="", value_arcsec=1.0, sigma_arcsec=0.1)
    for value, sigma in ((True, True), (1.0, True), (False, 0.1)):
        with pytest.raises(IngestionError, match="finite number"):
            Observation(planet="X", value_arcsec=value, sigma_arcsec=sigma)
    for name in ("Mercury ", " Mercury"):
        with pytest.raises(IngestionError, match="whitespace"):
            Observation(planet=name, value_arcsec=1.0, sigma_arcsec=0.1)


def test_invert_delta_zero(mercury):
    assert invert_delta(mercury, 0.0) == 0.0


def test_invert_delta_frozen(mercury):
    # closed-form arithmetic oracle values
    assert invert_delta(mercury, 43.06) == pytest.approx(0.039799768471522154, rel=1e-12)
    assert invert_delta(mercury, 43.11) == pytest.approx(0.0398459827814254, rel=1e-12)
    assert invert_delta(mercury, 43.11) == pytest.approx(0.03985, rel=2e-4)


def test_invert_delta_round_trip(planets):
    for el in planets.values():
        for rule in QuantumRule:
            for delta in (1e-4, 1e-3, 0.01, 0.0398, 0.05):
                forward = planet_precession(el, delta, rule).per_century_arcsec
                back = invert_delta(el, forward, rule)
                assert back == pytest.approx(delta, rel=1e-10)


def test_invert_delta_breakdown(mercury):
    with pytest.raises(ModelBreakdownError):
        invert_delta(mercury, 1e25)
    # epsilon = 0.41 < 1: the exact orbit from perihelion is unbounded
    with pytest.raises(ModelBreakdownError, match="unbounded"):
        invert_delta(mercury, 1.6e8)
    with pytest.raises(DomainError):
        invert_delta(mercury, -1.0)


def test_fit_single_observation(mercury, planets):
    obs = [Observation(planet="Mercury", value_arcsec=43.11, sigma_arcsec=0.45)]
    result = fit_delta(obs, planets=list(planets.values()))
    assert result.delta_star == pytest.approx(invert_delta(mercury, 43.11), rel=1e-6)
    assert result.residuals["Mercury"] == pytest.approx(0.0, abs=1e-4)


def test_fit_bundled_observations(planets):
    # weighted-least-squares oracle from the direct arithmetic chain
    result = fit_delta(load_observations(), planets=list(planets.values()))
    assert result.delta_star == pytest.approx(0.03953376168385846, rel=1e-10)
    assert result.delta_sigma == pytest.approx(0.00041316949764523406, rel=1e-10)
    assert result.chi2 == pytest.approx(42.611917540576236, rel=1e-9)
    assert result.residuals["Mercury"] == pytest.approx(0.33779699185171097, abs=1e-8)
    assert result.residuals["Venus"] == pytest.approx(-11.652590742004177, abs=1e-8)
    assert result.residuals["Earth"] == pytest.approx(-7.215490671657188, abs=1e-8)
    # the mediate value fits Mercury well and the others poorly
    assert abs(result.residuals["Mercury"]) < 0.5
    assert result.residuals["Venus"] < -4.8
    assert result.residuals["Earth"] < -1.2


def test_fit_weight_limit(mercury, planets):
    # drowning the other planets' weights recovers the Mercury-only solution
    obs = [
        Observation(planet="Mercury", value_arcsec=43.11, sigma_arcsec=0.45),
        Observation(planet="Venus", value_arcsec=8.4, sigma_arcsec=1e12),
        Observation(planet="Earth", value_arcsec=5.0, sigma_arcsec=1e12),
    ]
    result = fit_delta(obs, planets=list(planets.values()))
    assert result.delta_star == pytest.approx(invert_delta(mercury, 43.11), rel=1e-6)


def test_fit_synthetic_recovery(planets):
    # noise-free synthetic observations generated at a known delta are
    # recovered exactly (slopes defined at the same linearization point)
    delta_true = 0.023
    listing = list(planets.values())
    slopes = {el.name: planet_precession(el, 0.01).per_century_arcsec / 0.01
              for el in listing}
    obs = [Observation(planet=el.name, value_arcsec=slopes[el.name] * delta_true,
                       sigma_arcsec=0.3) for el in listing]
    result = fit_delta(obs, planets=listing)
    assert result.delta_star == pytest.approx(delta_true, rel=1e-12)


def test_fit_chi2_monotone_under_sigma_growth(planets):
    listing = list(planets.values())
    base = list(load_observations())
    chi2_prev = fit_delta(base, planets=listing).chi2
    for factor in (2.0, 5.0, 25.0):
        grown = [Observation(planet=o.planet, value_arcsec=o.value_arcsec,
                             sigma_arcsec=o.sigma_arcsec * factor)
                 if o.planet == "Earth" else o for o in base]
        chi2 = fit_delta(grown, planets=listing).chi2
        assert chi2 <= chi2_prev + 1e-9
        chi2_prev = chi2


def test_fit_empty():
    with pytest.raises(DomainError):
        fit_delta([])


def test_fit_rejects_duplicate_planets(planets):
    # FitResult is keyed by planet, so a second Mercury would be merged away
    for second in ("Mercury", "MERCURY"):
        obs = [Observation(planet="Mercury", value_arcsec=43.11, sigma_arcsec=0.45),
               Observation(planet=second, value_arcsec=40.0, sigma_arcsec=0.9)]
        with pytest.raises(IngestionError, match=f"duplicate observation '{second}'"):
            fit_delta(obs, planets=list(planets.values()))


def test_fit_unknown_planet(planets):
    obs = [Observation(planet="Vulcan", value_arcsec=10.0, sigma_arcsec=1.0)]
    with pytest.raises(IngestionError, match="Vulcan"):
        fit_delta(obs, planets=list(planets.values()))


def test_sweep_endpoints(mercury):
    rows = sweep_delta(mercury, 0.01, 0.05, 2)
    assert rows[0][0] == 0.01 and rows[1][0] == 0.05
    assert rows[0][1] == pytest.approx(10.819157443300954, rel=1e-12)
    assert rows[1][1] == pytest.approx(54.09579374245728, rel=1e-12)
    assert rows[0][1] == pytest.approx(10.82, abs=0.01)
    assert rows[1][1] == pytest.approx(54.10, abs=0.01)


def test_sweep_midpoint_linearity(mercury):
    rows = sweep_delta(mercury, 0.01, 0.05, 3)
    assert rows[1][0] == pytest.approx(0.03, rel=1e-12)
    assert rows[1][1] == pytest.approx(32.46, abs=0.05)


def test_sweep_from_zero(mercury):
    rows = sweep_delta(mercury, 0.0, 0.02, 2)
    assert rows[0] == (0.0, 0.0)


def test_sweep_monotone(mercury):
    rows = sweep_delta(mercury, 0.0, 0.05, 11)
    values = [v for _, v in rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sweep_validation(mercury):
    with pytest.raises(DomainError):
        sweep_delta(mercury, 0.05, 0.01, 2)
    with pytest.raises(DomainError):
        sweep_delta(mercury, 0.0, 0.05, 1)
    with pytest.raises(DomainError):
        sweep_delta(mercury, -0.01, 0.05, 2)


@pytest.mark.parametrize("rule", list(QuantumRule))
def test_sweep_rows_equal_planet_precession(mercury, rule):
    # the sweep derives its orbit once; every row must still be exactly
    # what planet_precession gives for that delta
    for delta, value in sweep_delta(mercury, 0.003, 250.0, 57, rule):
        assert value == planet_precession(mercury, delta, rule).per_century_arcsec


def test_sweep_into_breakdown_raises_like_planet_precession(mercury):
    with pytest.raises(ModelBreakdownError) as single:
        planet_precession(mercury, 1e6)
    with pytest.raises(ModelBreakdownError) as swept:
        sweep_delta(mercury, 0.0, 1e6, 2)
    assert str(swept.value) == str(single.value)


# Planets with Kepler-consistent periods (within a factor of two), so that
# deltas up to 300 arcsec stay far from breakdown. Each example draws fresh
# elements, and each record derives its own orbit when it is built.
@st.composite
def _planet(draw):
    a = draw(st.floats(0.05, 50.0)) * CONSTANTS.au
    if draw(st.booleans()):
        a = float(round(a))          # whole metres, so an int twin exists
    e = draw(st.floats(0.0, 0.95))
    kepler_days = 2.0 * math.pi * math.sqrt(a ** 3 / CONSTANTS.gm_sun) / 86400.0
    tau_days = kepler_days * draw(st.floats(0.5, 2.0))
    name = draw(st.text("ABCxyz", min_size=1, max_size=6))
    return PlanetElements(name=name, a=a, e=e, tau_days=tau_days)


_rules = st.sampled_from(list(QuantumRule))
_deltas = st.floats(0.0, 300.0)


@given(el=_planet(), rule=_rules, bounds=st.lists(_deltas, min_size=2, max_size=2, unique=True),
       steps=st.integers(2, 40))
def test_sweep_rows_are_planet_precession_bit_for_bit(el, rule, bounds, steps):
    lo, hi = sorted(bounds)
    for delta, value in sweep_delta(el, lo, hi, steps, rule):
        assert value.hex() == planet_precession(el, delta, rule).per_century_arcsec.hex()


@given(el=_planet(), rule=_rules, delta=st.floats(1e-6, 300.0))
def test_invert_delta_undoes_planet_precession(el, rule, delta):
    forward = planet_precession(el, delta, rule).per_century_arcsec
    assert invert_delta(el, forward, rule) == pytest.approx(delta, rel=1e-12, abs=0.0)


@given(el=_planet(), rule=_rules, deltas=st.lists(_deltas, min_size=2, max_size=2))
def test_planet_precession_is_non_decreasing_in_delta(el, rule, deltas):
    lo, hi = sorted(deltas)
    low = planet_precession(el, lo, rule)
    high = planet_precession(el, hi, rule)
    assert low.per_orbit_rad <= high.per_orbit_rad
    assert low.per_century_arcsec <= high.per_century_arcsec


@given(el=_planet(), delta=_deltas)
def test_semiminor_rule_never_predicts_less(el, delta):
    # b = a sqrt(1 - e^2) >= a (1 - e) = r_p, so the semi-minor rule's
    # quantum, and with it the advance, is never the smaller
    perihelion = planet_precession(el, delta, QuantumRule.PERIHELION)
    semiminor = planet_precession(el, delta, QuantumRule.SEMIMINOR)
    assert semiminor.per_orbit_rad >= perihelion.per_orbit_rad
    assert semiminor.per_century_arcsec >= perihelion.per_century_arcsec


@settings(max_examples=50)
@given(planets=st.lists(_planet(), min_size=1, max_size=8))
def test_derive_orbit_depends_on_values_alone(planets):
    for el in planets:
        # an equal but distinct record, with an int semi-major axis when whole
        a = int(el.a) if el.a == int(el.a) else el.a
        twin = PlanetElements(name=el.name, a=a, e=el.e, tau_days=el.tau_days)
        assert twin == el and hash(twin) == hash(el)
        assert derive_orbit(twin) == derive_orbit(el)


@given(el=_planet())
def test_derive_orbit_equals_the_element_formulas(el):
    orbit = derive_orbit(el)
    b = el.a * math.sqrt(1.0 - el.e * el.e)
    expected = (b, el.a * (1.0 - el.e),
                2.0 * math.pi * el.a * b / (el.tau_days * 86400.0),
                CONSTANTS.gm_sun, 36525.0 / el.tau_days)
    stored = (orbit.b, orbit.r_p, orbit.h, orbit.mu, orbit.orbits_per_century)
    assert [x.hex() for x in stored] == [x.hex() for x in expected]

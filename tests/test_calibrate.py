import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrav import (ARCSEC_PER_RAD, AU, GM_SUN, DomainError, IngestionError,
                   ModelBreakdownError, Observation, PlanetElements, QuantumRule,
                   calibrate, derive_orbit, fit_delta, invert_delta, load_observations,
                   planet_precession, precession, sweep_delta)


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
    with pytest.raises(IngestionError, match="not found"):
        load_observations(tmp_path / "nope.json")


def test_observation_validation():
    with pytest.raises(IngestionError):
        Observation(planet="X", value_arcsec=1.0, sigma_arcsec=-0.1)
    for value, sigma in ((True, True), (1.0, True), (False, 0.1)):
        with pytest.raises(IngestionError, match="finite number"):
            Observation(planet="X", value_arcsec=value, sigma_arcsec=sigma)
    for name in ("Mercury ", " Mercury"):
        with pytest.raises(IngestionError, match="whitespace"):
            Observation(planet=name, value_arcsec=1.0, sigma_arcsec=0.1)
    # sigma^2 underflows to 0 or overflows to inf, or its inverse, the fit
    # weight, overflows
    for sigma in (1e-200, 1e200, 1e-160):
        with pytest.raises(IngestionError, match=r"sigma\^2"):
            Observation(planet="X", value_arcsec=1.0, sigma_arcsec=sigma)


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


def test_fit_keeps_the_plain_sums_when_they_are_finite(planets):
    # Weights are rescaled only when the plain sums overflow; every other
    # fit keeps the bits of the plain weighted sums.
    listing = list(planets.values())

    def plain(observations):
        so = ss = 0.0
        for obs in observations:
            w = 1.0 / (obs.sigma_arcsec * obs.sigma_arcsec)
            s = planet_precession(planets[obs.planet], 0.01).per_century_arcsec / 0.01
            so += w * s * obs.value_arcsec
            ss += w * s * s
        return max(so / ss, 0.0), ss ** -0.5

    for observations in (load_observations(),
                         [Observation(planet="Mercury", value_arcsec=43.11,
                                      sigma_arcsec=1e-150)]):
        result = fit_delta(observations, planets=listing)
        assert (result.delta_star, result.delta_sigma) == plain(observations)


def test_fit_scales_a_slope_past_the_float_range():
    # Tiny's slope is 2.9e183, so w * s * s overflows at weight 1: the fit
    # must scale the slope, not return the false delta* = 0 +- 0 that
    # finite / inf gives. One observation fits delta* = value/s, sigma 1/s.
    tiny = PlanetElements("Tiny", 1e-150, 0.0, 1e-300)
    slope = planet_precession(tiny, calibrate.DELTA_REF).per_century_arcsec / calibrate.DELTA_REF
    assert slope * slope == math.inf
    result = fit_delta([Observation("Tiny", 1.0, 1.0)], planets=[tiny])
    assert 1.0 / slope == 3.4728059777270125e-184
    assert result.delta_star == pytest.approx(1.0 / slope, rel=4 * 2.0 ** -52, abs=0.0)
    assert result.delta_sigma == pytest.approx(1.0 / slope, rel=4 * 2.0 ** -52, abs=0.0)


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
    for lo, hi in ((0.0, math.inf), (math.nan, 0.05), (0.01, math.nan)):
        with pytest.raises(DomainError, match="sweep needs finite"):
            sweep_delta(mercury, lo, hi, 2)
    # steps goes through operator.index: a float or True (which is 1) is
    # refused, a NumPy integer is a count
    for steps in (3.0, 2.5, True, "3"):
        with pytest.raises(DomainError, match="sweep needs at least 2 steps"):
            sweep_delta(mercury, 0.01, 0.05, steps)
    assert sweep_delta(mercury, 0.01, 0.05, np.int64(3)) == sweep_delta(mercury, 0.01, 0.05, 3)


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


def _first_failure(el, lo, hi, steps, rule):
    """(row, type, message) of the first row of sweep_delta's grid that
    planet_precession refuses."""
    span = hi - lo
    deltas = [lo + span * i / (steps - 1) for i in range(steps - 1)] + [hi]
    for row, delta in enumerate(deltas):
        try:
            planet_precession(el, delta, rule)
        except (DomainError, ModelBreakdownError) as exc:
            return row, type(exc), str(exc)
    raise AssertionError("no row breaks down")


@pytest.mark.parametrize("rule", list(QuantumRule))
@pytest.mark.parametrize("hi, steps", [(6e4, 1000), (1e6, 1000), (1.7e308, 4)])
def test_sweep_past_the_box_raises_at_its_first_failing_row(mercury, rule, hi, steps):
    # the box is tested on the largest row only; past it the rows are
    # checked in turn, so the sweep raises what planet_precession raises at
    # the first failing row: an interior one, and at 1.7e308 row 1
    # (5.7e307"), whose quantum overflows, not row 2, whose delta does
    failing, kind, message = _first_failure(mercury, 0.0, hi, steps, rule)
    assert 0 < failing < steps - 1
    if hi == 1.7e308:
        assert failing == 1 and kind is ModelBreakdownError
    with pytest.raises(kind) as swept:
        sweep_delta(mercury, 0.0, hi, steps, rule)
    assert str(swept.value) == message


def _counting(monkeypatch, *bindings):
    """Count the calls made through each (module, name) binding."""
    counts = {name: 0 for _, name in bindings}
    for module, name in bindings:
        def counted(*args, _name=name, _f=getattr(module, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(module, name, counted)
    return counts


def test_an_in_box_sweep_checks_no_row(monkeypatch, mercury):
    # sweep_delta reaches the rule only through planet_precession, and
    # planet_precession only through forces._epsilon
    counts = _counting(monkeypatch, (calibrate, "planet_precession"),
                       (calibrate, "_advance_from_eps"), (precession, "_epsilon"))
    rows = sweep_delta(mercury, 0.01, 0.05, 1000)
    assert len(rows) == 1000
    assert counts == {"planet_precession": 0, "_advance_from_eps": 1000, "_epsilon": 0}
    counts.update(dict.fromkeys(counts, 0))
    planet_precession(mercury, 0.0398)
    assert counts["_epsilon"] == 1


@pytest.mark.parametrize("rule", list(QuantumRule))
def test_a_past_box_sweep_evaluates_each_row_once(monkeypatch, mercury, rule):
    # past the box each row is planet_precession's own result, with no
    # second evaluation inline
    counts = _counting(monkeypatch, (calibrate, "planet_precession"),
                       (calibrate, "_advance_from_eps"), (precession, "_epsilon"))
    rows = sweep_delta(mercury, 0.0, 3e4, 1000, rule)
    assert len(rows) == 1000
    assert counts == {"planet_precession": 1000, "_advance_from_eps": 0, "_epsilon": 1000}


def test_invert_delta_refuses_the_delta_planet_precession_refuses(mercury):
    # this target inverts to 59783.32482258727", the first delta the rule
    # refuses on Mercury, though the eps it inverts lies just inside the rule
    with pytest.raises(ModelBreakdownError) as single:
        planet_precession(mercury, 59783.32482258727)
    with pytest.raises(ModelBreakdownError) as inverted:
        invert_delta(mercury, 79306830.71481125)
    assert str(inverted.value) == str(single.value)


def test_invert_delta_takes_the_limit_of_an_infinite_advance(monkeypatch):
    # 1e300"/century is an advance per orbit past the float range on this
    # far planet: the inversion takes the limit eps = 1, not inf/inf = nan,
    # and planet_precession refuses the delta it forms.
    far = PlanetElements("Far", 1e150, 0.0, 6e141)
    formed = []
    with monkeypatch.context() as unchecked:
        unchecked.setattr(calibrate, "planet_precession",
                          lambda el, delta, rule: formed.append(delta))
        delta = invert_delta(far, 1e300)
    assert formed == [delta] and math.isfinite(delta)
    with pytest.raises(ModelBreakdownError) as single:
        planet_precession(far, delta)
    with pytest.raises(ModelBreakdownError) as inverted:
        invert_delta(far, 1e300)
    assert str(inverted.value) == str(single.value) == (
        "Far: quantum 1.106924798077988e+288 m too large for this orbit: the exact orbit "
        "from perihelion is unbounded (epsilon = 1.0)")


def test_every_function_taking_elements_names_the_planet(mercury):
    # The breakdown rule names the planet where it refuses, for each library
    # function that takes elements, an infinite quantum (1e308") included; a
    # fit whose delta* lies past Mercury's boundary (5.98e4") refuses at its
    # prediction there.
    from qgrav import QuantizedModel, measured_precession, orbit_params
    named = "^Mercury: quantum .* unbounded"
    for call, args in ((planet_precession, (1e6,)), (sweep_delta, (0, 1e6, 1000)),
                       (invert_delta, (79306830.71481125,)), (measured_precession, (6e4,)),
                       (measured_precession, (1e308,))):
        with pytest.raises(ModelBreakdownError, match=named):
            call(mercury, *args)
    with pytest.raises(ModelBreakdownError, match=named):
        fit_delta([Observation("Mercury", 1e8, 1.0)])
    # orbit_params and QuantizedModel take no elements, so they name no planet
    orbit = derive_orbit(mercury)
    q_edge = orbit.h ** 2 / orbit.mu
    with pytest.raises(ModelBreakdownError, match="^quantum .* unbounded"):
        orbit_params(0.3 * q_edge, orbit)
    with pytest.raises(ModelBreakdownError, match="^quantum .* unbounded"):
        QuantizedModel(quantum=0.3 * q_edge, mu=orbit.mu, h=orbit.h)


def _last_admitted(el, rule):
    """The largest delta planet_precession admits on el, by bisection."""
    def admitted(delta):
        try:
            planet_precession(el, delta, rule)
        except ModelBreakdownError:
            return False
        return True

    low, high = 0.0, 1e6
    assert not admitted(high)
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return low
        low, high = (mid, high) if admitted(mid) else (low, mid)


def _outcome(call, *args):
    """call's result in float hex, or its error type and message."""
    try:
        return call(*args).hex()
    except ModelBreakdownError as exc:
        return type(exc), str(exc)


def _admitted(el, delta, rule):
    """delta, if planet_precession admits it on el."""
    planet_precession(el, delta, rule)
    return delta


@pytest.mark.parametrize("rule", list(QuantumRule))
def test_invert_delta_breaks_down_where_planet_precession_does(monkeypatch, planets, rule):
    # Over 3000 floats either side of each boundary target, invert_delta
    # raises if and only if planet_precession raises on the delta the
    # inversion forms, with the same message, and otherwise returns it.
    for el in planets.values():
        target = planet_precession(el, _last_admitted(el, rule), rule).per_century_arcsec
        targets = [target]
        for direction in (-math.inf, math.inf):
            t = target
            for _ in range(3000):
                t = math.nextafter(t, direction)
                targets.append(t)
        with monkeypatch.context() as unchecked:
            unchecked.setattr(calibrate, "planet_precession", lambda *args: None)
            formed = [invert_delta(el, t, rule) for t in targets]
        refused = 0
        for t, delta in zip(targets, formed):
            expected = _outcome(_admitted, el, delta, rule)
            assert _outcome(invert_delta, el, t, rule) == expected, (el.name, t.hex())
            refused += isinstance(expected, tuple)
        assert 0 < refused < len(targets)


# Planets with Kepler-consistent periods (within a factor of two), so that
# deltas up to 300 arcsec stay far from breakdown. Each example draws fresh
# elements, and each record derives its own orbit when it is built.
@st.composite
def _planet(draw):
    a = draw(st.floats(0.05, 50.0)) * AU
    if draw(st.booleans()):
        a = float(round(a))          # whole metres, so an int twin exists
    e = draw(st.floats(0.0, 0.95))
    kepler_days = 2.0 * math.pi * math.sqrt(a ** 3 / GM_SUN) / 86400.0
    tau_days = kepler_days * draw(st.floats(0.5, 2.0))
    name = draw(st.text("ABCxyz", min_size=1, max_size=6))
    return PlanetElements(name=name, a=a, e=e, tau_days=tau_days)


_rules = st.sampled_from([*QuantumRule, *(rule.value for rule in QuantumRule)])
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


@given(el=_planet(), rule=_rules,
       target=st.floats(0.0, sys.float_info.max) | st.integers(0, int(sys.float_info.max)))
def test_invert_delta_is_under_a_radian_or_breaks_down(el, rule, target):
    # the box or the breakdown rule leaves q < r_p <= b, so delta is
    # q/scale < 1 rad: invert_delta forms arcsec without a range check
    try:
        delta = invert_delta(el, target, rule)
    except ModelBreakdownError:
        return
    assert type(delta) is float and 0.0 <= delta < ARCSEC_PER_RAD


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
                GM_SUN, 36525.0 / el.tau_days)
    stored = (orbit.b, orbit.r_p, orbit.h, orbit.mu, orbit.orbits_per_century)
    assert [x.hex() for x in stored] == [x.hex() for x in expected]

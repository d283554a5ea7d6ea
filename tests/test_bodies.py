import io
import json
import math

import numpy as np
import pytest

from qgrav import (ARCSEC_PER_RAD, CONSTANTS, Constants, DomainError,
                   IngestionError, PlanetElements, arcsec_to_rad, derive_orbit,
                   load_planets, planet_by_name, rad_to_arcsec)

GM = 1.32712440018e20


def test_constants_values():
    assert CONSTANTS.gm_sun == 1.32712440018e20
    assert CONSTANTS.c == 299792458.0
    assert CONSTANTS.au == 1.495978707e11
    assert CONSTANTS.century_days == 36525.0
    assert abs(CONSTANTS.arcsec_per_rad - 206264.806247096363) < 1e-6
    # definitional identity to machine precision
    assert abs(CONSTANTS.arcsec_per_rad * (math.pi / 648000.0) - 1.0) < 1e-15


def test_constants_reject_nonpositive():
    with pytest.raises(DomainError):
        Constants(c=-1.0)
    with pytest.raises(DomainError):
        Constants(gm_sun=0.0)
    with pytest.raises(DomainError):
        Constants(arcsec_per_rad=123.0)
    with pytest.raises(DomainError):
        Constants(c=True)


def test_arcsec_to_rad_zero():
    assert arcsec_to_rad(0.0) == 0.0


def test_arcsec_to_rad_one_radian():
    # a full radian's worth of arcseconds converts back to 1
    assert abs(arcsec_to_rad(ARCSEC_PER_RAD) - 1.0) < 1e-12
    # the truncated textbook figure is good to its own printed precision
    assert abs(arcsec_to_rad(206264.80625) - 1.0) < 1e-10


def test_arcsec_to_rad_table_delta():
    # direct arithmetic: 0.0398 * pi / 648000
    expected = 0.0398 * math.pi / 648000.0
    got = arcsec_to_rad(0.0398)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(1.9295584508159534e-07, rel=1e-12)
    assert got == pytest.approx(1.92956e-07, rel=1e-5)


def test_arcsec_round_trip():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        x = float(10.0 ** rng.uniform(-10, 2))
        assert arcsec_to_rad(rad_to_arcsec(x)) == pytest.approx(x, rel=1e-14)
        assert rad_to_arcsec(arcsec_to_rad(x)) == pytest.approx(x, rel=1e-14)


def test_conversions_reject_nonfinite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            arcsec_to_rad(bad)
        with pytest.raises(DomainError):
            rad_to_arcsec(bad)


def test_bundled_planets():
    planets = load_planets()
    assert [p.name for p in planets] == ["Mercury", "Venus", "Earth"]
    by_name = {p.name: p for p in planets}
    assert by_name["Mercury"].a == pytest.approx(5.79092e10, rel=1e-5)
    assert by_name["Mercury"].e == pytest.approx(0.20563069, rel=1e-7)
    assert by_name["Mercury"].tau_days == pytest.approx(87.96926, rel=1e-6)
    assert by_name["Venus"].a == pytest.approx(1.08209e11, rel=1e-5)
    assert by_name["Venus"].e == pytest.approx(0.00677323, rel=1e-5)
    assert by_name["Venus"].tau_days == pytest.approx(224.70080, rel=1e-6)
    assert by_name["Earth"].a == pytest.approx(1.49598e11, rel=1e-5)
    assert by_name["Earth"].e == pytest.approx(0.01671022, rel=1e-5)
    assert by_name["Earth"].tau_days == pytest.approx(365.25636, rel=1e-6)


def _planets_doc(records):
    return json.dumps({"schema_version": 1, "planets": records})


def test_load_planets_from_stream():
    doc = _planets_doc([{"name": "Test", "a_m": 1e11, "e": 0.1, "tau_days": 100.0}])
    planets = load_planets(io.StringIO(doc))
    assert len(planets) == 1
    assert planets[0].name == "Test"


def test_load_planets_empty_is_not_an_error():
    assert load_planets(io.StringIO(_planets_doc([]))) == []


def test_load_planets_rejects_hyperbolic():
    doc = _planets_doc([{"name": "Comet", "a_m": 1e11, "e": 1.2, "tau_days": 100.0}])
    with pytest.raises(IngestionError, match="Comet"):
        load_planets(io.StringIO(doc))


def test_load_planets_rejects_nonpositive():
    for patch in ({"a_m": -1.0}, {"a_m": 0.0}, {"tau_days": 0.0}, {"tau_days": -3.0}):
        record = {"name": "Bad", "a_m": 1e11, "e": 0.1, "tau_days": 10.0}
        record.update(patch)
        with pytest.raises(IngestionError, match="Bad"):
            load_planets(io.StringIO(_planets_doc([record])))


def test_load_planets_rejects_unknown_fields():
    record = {"name": "X", "a_m": 1e11, "e": 0.1, "tau_days": 10.0, "mass_kg": 1.0}
    with pytest.raises(IngestionError, match="mass_kg"):
        load_planets(io.StringIO(_planets_doc([record])))


def test_load_planets_rejects_missing_fields():
    with pytest.raises(IngestionError, match="tau_days"):
        load_planets(io.StringIO(_planets_doc([{"name": "X", "a_m": 1e11, "e": 0.1}])))


def test_load_planets_rejects_bad_schema():
    for version in (2, True):
        with pytest.raises(IngestionError, match="schema_version"):
            load_planets(io.StringIO(json.dumps({"schema_version": version, "planets": []})))
    with pytest.raises(IngestionError, match="unknown top-level"):
        load_planets(io.StringIO(json.dumps(
            {"schema_version": 1, "planets": [], "extra": 1})))
    with pytest.raises(IngestionError, match="JSON"):
        load_planets(io.StringIO("not json at all"))


def test_load_planets_rejects_duplicate_names():
    records = [{"name": "A", "a_m": 1e11, "e": 0.1, "tau_days": 10.0},
               {"name": "a", "a_m": 2e11, "e": 0.2, "tau_days": 20.0}]
    with pytest.raises(IngestionError, match="duplicate planet 'a'"):
        load_planets(io.StringIO(_planets_doc(records)))


def test_load_planets_rejects_padded_names():
    record = {"name": "Mercury ", "a_m": 1e11, "e": 0.1, "tau_days": 10.0}
    with pytest.raises(IngestionError, match="whitespace"):
        load_planets(io.StringIO(_planets_doc([record])))
    # "A " would pass the duplicate check beside "A", and no lookup finds it
    records = [{"name": "A", "a_m": 1e11, "e": 0.1, "tau_days": 10.0},
               {"name": "A ", "a_m": 2e11, "e": 0.2, "tau_days": 20.0}]
    with pytest.raises(IngestionError, match="'A '"):
        load_planets(io.StringIO(_planets_doc(records)))


def test_load_planets_missing_file(tmp_path):
    with pytest.raises(IngestionError, match="not found"):
        load_planets(tmp_path / "nope.json")


def test_data_dir_override(tmp_path, monkeypatch):
    doc = _planets_doc([{"name": "Override", "a_m": 2e11, "e": 0.0, "tau_days": 500.0}])
    (tmp_path / "planets.json").write_text(doc)
    monkeypatch.setenv("QGRAV_DATA_DIR", str(tmp_path))
    planets = load_planets()
    assert [p.name for p in planets] == ["Override"]


def test_planet_elements_validation():
    with pytest.raises(IngestionError):
        PlanetElements(name="", a=1e11, e=0.1, tau_days=10.0)
    with pytest.raises(IngestionError):
        PlanetElements(name="X", a=1e11, e=math.nan, tau_days=10.0)
    for name in (" X", "X ", "X\t", "\nX"):
        with pytest.raises(IngestionError, match="whitespace"):
            PlanetElements(name=name, a=1e11, e=0.1, tau_days=10.0)
    # bool subclasses int, but a flag is not a measurement
    for patch in ({"a": True}, {"e": False}, {"tau_days": True}):
        fields = {"name": "X", "a": 1e11, "e": 0.1, "tau_days": 10.0, **patch}
        with pytest.raises(IngestionError, match="finite number"):
            PlanetElements(**fields)
    # valid elements whose orbit over- or underflows: h^2 is 0 or inf, or
    # the orbit count per century is inf
    for patch, quantity in (({"a": 1e-90}, "h"), ({"a": 1e300}, "h"),
                            ({"tau_days": 1e-320}, "h"),
                            ({"a": 1e-100, "tau_days": 1e-320}, "orbits per century")):
        fields = {"name": "X", "a": 1e11, "e": 0.1, "tau_days": 10.0, **patch}
        with pytest.raises(IngestionError, match=f"'X': derived {quantity}"):
            PlanetElements(**fields)


def test_derive_orbit_mercury(mercury):
    orbit = derive_orbit(mercury)
    # direct arithmetic from the bundled elements
    assert orbit.b == pytest.approx(56671660940.56127, rel=1e-12)
    assert orbit.r_p == pytest.approx(46001291246.652, rel=1e-12)
    assert orbit.h == pytest.approx(2712993127974795.0, rel=1e-12)
    assert orbit.orbits_per_century == pytest.approx(415.2018557391525, rel=1e-12)
    assert orbit.mu == GM
    # hand-calculation figures at their stated precision
    assert orbit.b == pytest.approx(5.66717e10, rel=1e-4)
    assert orbit.r_p == pytest.approx(4.60013e10, rel=1e-4)
    assert orbit.h == pytest.approx(2.71296e15, rel=1e-4)
    assert orbit.orbits_per_century == pytest.approx(415.20, rel=1e-4)


def test_derive_orbit_venus(venus):
    orbit = derive_orbit(venus)
    assert orbit.h == pytest.approx(3789468594629418.5, rel=1e-12)
    assert orbit.h == pytest.approx(3.78949e15, rel=1e-4)


def test_derive_orbit_circular():
    el = PlanetElements(name="Round", a=1.0e11, e=0.0, tau_days=200.0)
    orbit = derive_orbit(el)
    assert orbit.b == el.a
    assert orbit.r_p == el.a
    assert orbit.h == pytest.approx(2.0 * math.pi * el.a ** 2 / (200.0 * 86400.0), rel=1e-15)


def test_derive_orbit_deterministic(mercury):
    # derived once, when the elements were built
    assert derive_orbit(mercury) is derive_orbit(mercury)
    assert derive_orbit(mercury) is mercury.orbit


def test_axis_ordering_property():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = float(10.0 ** rng.uniform(9, 13))
        e = float(rng.uniform(1e-6, 0.95))
        el = PlanetElements(name="P", a=a, e=e, tau_days=float(rng.uniform(1, 1e5)))
        orbit = derive_orbit(el)
        assert orbit.r_p < orbit.b < el.a
    # equality holds exactly only for circular orbits
    circ = derive_orbit(PlanetElements(name="C", a=1e11, e=0.0, tau_days=10.0))
    assert circ.r_p == circ.b == 1e11


def test_planet_by_name(planets):
    listing = list(planets.values())
    assert planet_by_name(listing, "mercury").name == "Mercury"
    assert planet_by_name(listing, "  EARTH ").name == "Earth"
    with pytest.raises(IngestionError, match="Pluto"):
        planet_by_name(listing, "Pluto")

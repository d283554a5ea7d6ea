import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrav import (ARCSEC_PER_RAD, AU, C_LIGHT, CENTURY_DAYS, GM_SUN, DomainError,
                   IngestionError, PlanetElements, arcsec_to_rad, derive_orbit,
                   load_observations, load_planets, planet_by_name, rad_to_arcsec)
from qgrav.bodies import bundled_data_path

GM = 1.32712440018e20


def test_constants_values():
    assert GM_SUN == 1.32712440018e20
    assert C_LIGHT == 299792458.0
    assert AU == 1.495978707e11
    assert CENTURY_DAYS == 36525.0
    assert abs(ARCSEC_PER_RAD - 206264.806247096363) < 1e-6
    # definitional identity to machine precision
    assert abs(ARCSEC_PER_RAD * (math.pi / 648000.0) - 1.0) < 1e-15


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


def test_load_planets_rejects_text_that_is_not_json():
    with pytest.raises(IngestionError, match="JSON"):
        load_planets(io.StringIO("not json at all"))


def test_load_planets_missing_file(tmp_path):
    with pytest.raises(IngestionError, match="not found"):
        load_planets(tmp_path / "nope.json")


@pytest.mark.parametrize("loader, what", [(load_planets, "planets"),
                                          (load_observations, "observations")])
def test_loaders_read_a_path_as_given(tmp_path, monkeypatch, loader, what):
    # A str, an os.PathLike, a stream, a path with a trailing separator and
    # the QGRAV_DATA_DIR override all reach the same file and the same records.
    bundled = loader()
    path = tmp_path / f"{what}.json"
    path.write_bytes(Path(bundled_data_path(f"{what}.json")).read_bytes())
    with open(path, encoding="utf-8") as stream:
        assert loader(stream) == bundled
    for source in (str(path), path, str(path) + os.sep, str(path) + os.sep * 2):
        assert loader(source) == bundled, source
    monkeypatch.setenv("QGRAV_DATA_DIR", str(tmp_path) + os.sep)
    assert loader() == bundled
    # A refusal names the path as it was given; only a missing file is "not
    # found", and every other failure of the one open() is a failed read.
    missing = str(tmp_path) + "//nope.json"
    with pytest.raises(IngestionError, match=f"^{what} file not found: {re.escape(missing)}$"):
        loader(missing)
    loop = tmp_path / "loop.json"
    loop.symlink_to(loop)
    for source, errno in (("a" * 300, 36), (str(path / "below.json"), 20), (str(tmp_path), 21),
                          (str(loop), 40)):
        with pytest.raises(IngestionError,
                           match=f"^{what} file {re.escape(source)} cannot be read as JSON: "
                                 rf"\[Errno {errno}\]"):
            loader(source)


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


# Both data files share one envelope. Each entry: the loader, the words its
# messages use (file, item, key field, a number field) and a valid record.
DATA_FILES = {
    "planets": (load_planets,
                {"file": "planets", "item": "planet", "key": "name", "number": "tau_days"},
                {"name": "A", "a_m": 1e11, "e": 0.1, "tau_days": 10.0}),
    "observations": (load_observations,
                     {"file": "observations", "item": "observation", "key": "planet",
                      "number": "value_arcsec"},
                     {"planet": "A", "value_arcsec": 1.0, "sigma_arcsec": 0.5}),
}


def _document(w, records):
    return {"schema_version": 1, w["file"]: records}


# (fault, document from words and a valid record, expected message)
ENVELOPE_FAULTS = [
    ("not-an-object", lambda w, r: [], "{file} file must be a JSON object"),
    ("unknown-top-level", lambda w, r: {**_document(w, []), "extra": 1},
     "{file} file has unknown top-level fields: ['extra']"),
    ("version-2", lambda w, r: {**_document(w, []), "schema_version": 2},
     "{file} file schema_version must be 1, got 2"),
    ("version-true", lambda w, r: {**_document(w, []), "schema_version": True},
     "{file} file schema_version must be 1, got True"),
    ("body-not-a-list", lambda w, r: _document(w, {}),
     "{file} file must carry a list named '{file}'"),
    ("record-not-an-object", lambda w, r: _document(w, [r, 5]),
     "{item} record #1 is not an object"),
    ("unknown-field", lambda w, r: _document(w, [{**r, "mass": 1}]),
     "{item} record 'A': unknown fields ['mass'], missing fields []"),
    ("missing-field",
     lambda w, r: _document(w, [{k: v for k, v in r.items() if k != w["number"]}]),
     "{item} record 'A': unknown fields [], missing fields ['{number}']"),
    ("empty-name", lambda w, r: _document(w, [{**r, w["key"]: ""}]),
     "{item} record '': {key} must be a non-empty string"),
    ("duplicate-name", lambda w, r: _document(w, [r, {**r, w["key"]: "a"}]),
     "duplicate {item} 'a': names must be unique, ignoring case"),
    ("padded-name", lambda w, r: _document(w, [{**r, w["key"]: "A "}]),
     "{item} 'A ': name must not start or end with whitespace"),
    # "A " would pass the duplicate check beside "A", and no lookup finds it
    ("padded-beside-unpadded", lambda w, r: _document(w, [r, {**r, w["key"]: "A "}]),
     "{item} 'A ': name must not start or end with whitespace"),
    ("non-finite-number", lambda w, r: _document(w, [{**r, w["number"]: math.inf}]),
     "{item} 'A': {number} must be a finite number, got inf"),
]


@pytest.mark.parametrize("file", DATA_FILES)
@pytest.mark.parametrize("fault, document, message", ENVELOPE_FAULTS,
                         ids=[fault for fault, _, _ in ENVELOPE_FAULTS])
def test_both_files_share_the_envelope(file, fault, document, message):
    load, words, record = DATA_FILES[file]
    with pytest.raises(IngestionError) as excinfo:
        load(io.StringIO(json.dumps(document(words, record))))
    assert str(excinfo.value) == message.format(**words)


def test_only_planets_require_a_schema_version():
    with pytest.raises(IngestionError, match="planets file schema_version must be 1, got None"):
        load_planets(io.StringIO(json.dumps({"planets": []})))
    assert load_observations(io.StringIO(json.dumps({"observations": []}))) == []


# Any tree json.dumps can write, huge ints and non-finite floats included.
_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=16)


@st.composite
def _documents(draw, file):
    """A JSON tree, alone or in one slot of an otherwise valid document."""
    _, words, record = DATA_FILES[file]
    tree = draw(_json_trees)
    slot = draw(st.sampled_from(["document", "version", "body", "record", "field"]))
    if slot == "document":
        return tree
    if slot == "version":
        return {**_document(words, [record]), "schema_version": tree}
    if slot == "body":
        return _document(words, tree)
    if slot == "record":
        return _document(words, [record, tree])
    return _document(words, [{**record, draw(st.sampled_from(sorted(record))): tree}])


@pytest.mark.parametrize("file", DATA_FILES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_json_loads_or_raises_ingestion_error(file, data):
    text = json.dumps(data.draw(_documents(file)))
    try:
        records = DATA_FILES[file][0](io.StringIO(text))
    except IngestionError:
        return
    assert isinstance(records, list)

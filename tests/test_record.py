"""The value-class contract: frozen, compared and hashed by field, printed as
Name(field=value, ...), and restored whole by pickle and copy.deepcopy."""

import copy
import pickle

import pytest

from qgrav import (DerivedOrbit, FitResult, Observation, PlanetElements,
                   PrecessionResult, Provenance, QuantizedModel, Trajectory)

# (class, a factory of equal fresh records, a record that differs in one
# field, the repr). Each repr but those of the array('d') fields is the one
# the frozen dataclasses printed.
CASES = [
    (DerivedOrbit, lambda: DerivedOrbit(b=1.0, r_p=2.0, h=3.0, mu=4.0, orbits_per_century=5.0),
     lambda: DerivedOrbit(1.0, 2.0, 3.0, 4.0, 6.0),
     "DerivedOrbit(b=1.0, r_p=2.0, h=3.0, mu=4.0, orbits_per_century=5.0)"),
    (PlanetElements, lambda: PlanetElements("Mercury", 5.79e10, 0.2056, 87.969),
     lambda: PlanetElements("Mercury", 5.79e10, 0.2056, 88.0),
     "PlanetElements(name='Mercury', a=57900000000.0, e=0.2056, tau_days=87.969)"),
    (Observation, lambda: Observation("Mercury", 43.0, 0.5),
     lambda: Observation(planet="Mercury", value_arcsec=43.0, sigma_arcsec=0.45),
     "Observation(planet='Mercury', value_arcsec=43.0, sigma_arcsec=0.5)"),
    (FitResult, lambda: FitResult(0.04, 0.001, {"Mercury": 0.1}, {"Mercury": 42.9}, 0.04),
     lambda: FitResult(0.04, 0.001, {"Mercury": 0.1}, {"Mercury": 42.9}, 0.05),
     "FitResult(delta_star=0.04, delta_sigma=0.001, residuals={'Mercury': 0.1}, "
     "predicted={'Mercury': 42.9}, chi2=0.04)"),
    (QuantizedModel, lambda: QuantizedModel(quantum=1.0, mu=2.0, h=3.0),
     lambda: QuantizedModel(1.0, 2.0, 4.0),
     "QuantizedModel(quantum=1.0, mu=2.0, h=3.0)"),
    (PrecessionResult, lambda: PrecessionResult(1e-7, 43.0, Provenance.ANALYTIC),
     lambda: PrecessionResult(1e-7, 43.0, Provenance.NUMERIC),
     "PrecessionResult(per_orbit_rad=1e-07, per_century_arcsec=43.0, "
     "provenance=<Provenance.ANALYTIC: 'analytic'>)"),
    (Trajectory, lambda: Trajectory([0.0, 0.25], [1.0, 1.5], 2, 0),
     lambda: Trajectory([0.0, 0.25], [1.0, 1.4], 2, 0),
     "Trajectory(theta=array('d', [0.0, 0.25]), u=array('d', [1.0, 1.5]), "
     "n_accepted=2, n_rejected=0)"),
]

# Records with a dict or array field are unhashable, as a tuple of those fields is.
UNHASHABLE = {FitResult, Trajectory}


@pytest.mark.parametrize("cls, make, make_other, expected_repr", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_class_contract(cls, make, make_other, expected_repr):
    record = make()
    assert type(record) is cls
    state = dict(vars(record))
    for name in list(state) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record) == state

    assert record == make()
    assert not record != make()
    assert record != make_other()
    assert record.__eq__(object()) is NotImplemented
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(make())
        assert len({record, make(), make_other()}) == 2

    assert repr(record) == expected_repr

    for restored in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(restored) is cls and vars(restored) == vars(record)
        assert restored == record
        with pytest.raises(AttributeError):
            setattr(restored, next(iter(state)), 1.0)


def test_planet_elements_compare_without_orbit():
    planet = PlanetElements("Mercury", 5.79e10, 0.2056, 87.969)
    twin = PlanetElements("Mercury", 5.79e10, 0.2056, 87.969)
    vars(twin)["orbit"] = DerivedOrbit(1.0, 2.0, 3.0, 4.0, 5.0)
    assert planet.orbit != twin.orbit
    assert planet == twin and hash(planet) == hash(twin)
    assert repr(planet) == repr(twin)
    assert "orbit" not in repr(planet)

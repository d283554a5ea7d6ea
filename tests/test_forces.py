import math

import numpy as np
import pytest

from qgrav import (ARCSEC_PER_RAD, DomainError, ModelBreakdownError,
                   PlanetElements, Provenance, QuantizedModel, SingularityError,
                   corrected_force, derive_orbit, gr_precession_baseline, integrate,
                   newtonian_force, state_weight, weight_increment)


def test_state_weight():
    assert state_weight(1) == 1.0
    assert state_weight(4) == 0.25
    assert state_weight(1000) == 0.001


def test_state_weight_rejects_nonpositive():
    for bad in (0, -1):
        with pytest.raises(DomainError):
            state_weight(bad)


def test_weight_increment_values():
    assert weight_increment(2) == 0.5
    assert weight_increment(10) == pytest.approx(1.0 / 90.0, rel=1e-15)
    assert weight_increment(10) == pytest.approx(0.0111111, rel=1e-5)


def test_weight_increment_rejects_no_predecessor():
    with pytest.raises(DomainError):
        weight_increment(1)
    with pytest.raises(DomainError):
        weight_increment(0)


def test_weight_increment_identity_sampled():
    # difference of weights equals 1/(L(L-1)) identically
    sample = list(range(2, 2000)) + [10 ** k for k in range(4, 7)]
    for n in sample:
        assert abs(weight_increment(n) * n * (n - 1) - 1.0) < 1e-13


def test_corrected_force_examples():
    assert corrected_force(1.0, 1.0, 1.0, 2.0, 1.0) == 0.5
    assert corrected_force(1.0, 1.0, 1.0, 2.0, 0.0) == 0.25
    assert corrected_force(1.0, 2.0, 3.0, 10.0, 0.5) == pytest.approx(6.0 / 95.0, rel=1e-12)


def test_corrected_force_singularity():
    with pytest.raises(SingularityError) as info:
        corrected_force(1.0, 1.0, 1.0, 1.0, 2.0)
    assert info.value.separation == 1.0
    assert info.value.quantum == 2.0
    with pytest.raises(SingularityError):
        corrected_force(1.0, 1.0, 1.0, 2.0, 2.0)  # at the quantum exactly


def test_corrected_force_rejects_bad_args():
    with pytest.raises(DomainError):
        corrected_force(-1.0, 1.0, 1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        corrected_force(1.0, -1.0, 1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        corrected_force(1.0, 1.0, 1.0, 2.0, -0.5)


HUGE, NAN, INF = 10 ** 400, float("nan"), float("inf")
MODEL = QuantizedModel(quantum=0.0, mu=1.3e20, h=2.7e15)
OUT_OF_RANGE = {
    "model quantum": (QuantizedModel, (HUGE, 1.3e20, 2.7e15), "space quantum must be >= 0"),
    "model mu": (QuantizedModel, (0.0, HUGE, 2.7e15), "gravitational parameter must be"),
    "model h": (QuantizedModel, (0.0, 1.3e20, HUGE), "angular momentum must be positive"),
    "force g": (corrected_force, (HUGE, 1.0, 1.0, 2.0, 0.0), "G must be positive"),
    "force m1": (corrected_force, (1.0, HUGE, 1.0, 2.0, 0.0), "masses must be >= 0"),
    "force m2": (corrected_force, (1.0, 1.0, HUGE, 2.0, 0.0), "masses must be >= 0"),
    "force nan m1": (corrected_force, (1.0, NAN, 1.0, 2.0, 0.0), "masses must be >= 0"),
    "force inf m1": (corrected_force, (1.0, INF, 1.0, 2.0, 0.0), "masses must be >= 0"),
    "force separation": (corrected_force, (1.0, 1.0, 1.0, HUGE, 0.0), "separation must be"),
    "force nan separation": (corrected_force, (1.0, 1.0, 1.0, NAN, 0.0), "separation must be"),
    "force inf separation": (corrected_force, (1.0, 1.0, 1.0, INF, 0.0), "separation must be"),
    "force quantum": (corrected_force, (1.0, 1.0, 1.0, 2.0, HUGE), "space quantum must be"),
    "newton separation": (newtonian_force, (1.0, 1.0, 1.0, HUGE), "separation must be"),
    "newton nan separation": (newtonian_force, (1.0, 1.0, 1.0, NAN), "separation must be"),
    "integrate theta_max": (integrate, (MODEL, 1.0, 0.0, HUGE), "theta_max must be positive"),
    "integrate u0": (integrate, (MODEL, HUGE, 0.0, 10.0), "initial inverse radius must be"),
    "integrate du0": (integrate, (MODEL, 1.0, HUGE, 10.0), "initial slope must be finite"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_numbers_outside_the_float_range_are_refused(case):
    # A range test against the float range refuses nan, inf and an int
    # beyond it alike; math.isfinite would raise OverflowError on the int.
    function, args, message = OUT_OF_RANGE[case]
    with pytest.raises(DomainError, match=message):
        function(*args)


# Ints inside the float range whose exact product is not, and what float
# arguments of the same size give. An exact int quotient is kept: in floats
# its denominator 1e300 * (1e300 - (1e300 - 1)) would be 0.
INT_PRODUCTS = {
    "force numerator": (corrected_force, (10 ** 200, 10 ** 200, 1, 2.0, 0.0), math.inf),
    "newton numerator": (newtonian_force, (10 ** 200, 10 ** 200, 1, 2.0), math.inf),
    "force denominator": (corrected_force, (1.0, 1.0, 1.0, 10 ** 200, 0), 0.0),
    "force int quotient": (corrected_force, (1, 1, 1, 10 ** 300, 10 ** 300 - 1), 1e-300),
    "model numerator": (lambda *a: QuantizedModel(*a).epsilon, (10 ** 300, 10 ** 300, 1),
                        "(epsilon = inf)"),
    "model denominator": (lambda *a: QuantizedModel(*a).epsilon, (1.0, 1.0, 10 ** 200), 0.0),
}


@pytest.mark.parametrize("case", INT_PRODUCTS)
def test_an_int_product_past_the_float_range_reads_as_its_float(case):
    function, args, expected = INT_PRODUCTS[case]
    if isinstance(expected, str):
        with pytest.raises(ModelBreakdownError) as refused:
            function(*args)
        assert str(refused.value).endswith(expected)
    else:
        assert function(*args) == expected


def test_newtonian_force():
    assert newtonian_force(1.0, 1.0, 1.0, 1.0) == 1.0
    assert newtonian_force(1.0, 1.0, 1.0, 2.0) == 0.25
    with pytest.raises(DomainError):
        newtonian_force(1.0, 1.0, 1.0, 0.0)


def test_newtonian_equals_corrected_at_zero_quantum():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = float(10.0 ** rng.uniform(-11, 0))
        m1 = float(10.0 ** rng.uniform(0, 30))
        m2 = float(10.0 ** rng.uniform(0, 30))
        sep = float(10.0 ** rng.uniform(-3, 12))
        assert newtonian_force(g, m1, m2, sep) == corrected_force(g, m1, m2, sep, 0.0)


def test_corrected_force_monotone_in_separation():
    rng = np.random.default_rng(12)
    q = 1.0
    for _ in range(200):
        l1 = float(rng.uniform(1.5, 1e6))
        l2 = l1 * float(rng.uniform(1.0001, 10.0))
        assert corrected_force(1.0, 1.0, 1.0, l2, q) < corrected_force(1.0, 1.0, 1.0, l1, q)


def test_relative_excess_identity():
    # (F - F_newton)/F_newton == q/(L - q)
    rng = np.random.default_rng(13)
    for _ in range(200):
        sep = float(rng.uniform(1.0, 1e8))
        q = sep * float(rng.uniform(0.0, 0.5))
        f = corrected_force(2.3, 4.0, 5.0, sep, q)
        f0 = newtonian_force(2.3, 4.0, 5.0, sep)
        excess = (f - f0) / f0
        assert excess == pytest.approx(q / (sep - q), rel=1e-12, abs=1e-300)
        if q <= sep / 2.0:
            assert excess <= 2.0 * q / sep * (1 + 1e-12)


def test_weight_increment_matches_unit_force():
    # the force at unit masses/G with a unit quantum is the weight increment
    for n in list(range(2, 200)) + [10 ** 4, 10 ** 6]:
        assert corrected_force(1.0, 1.0, 1.0, float(n), 1.0) == weight_increment(n)


def test_quantized_model_validation():
    model = QuantizedModel(quantum=10.0, mu=1.3e20, h=2.7e15)
    assert model.epsilon == pytest.approx(10.0 * 1.3e20 / 2.7e15 ** 2, rel=1e-15)
    with pytest.raises(DomainError):
        QuantizedModel(quantum=-1.0, mu=1.3e20, h=2.7e15)
    with pytest.raises(DomainError):
        QuantizedModel(quantum=0.0, mu=0.0, h=2.7e15)
    with pytest.raises(DomainError):
        QuantizedModel(quantum=0.0, mu=1.3e20, h=-1.0)
    with pytest.raises(ModelBreakdownError):
        QuantizedModel(quantum=1e12, mu=1.3e20, h=2.7e15)
    # epsilon = 0.3 < 1, but past 1/4 no exact orbit is bounded
    with pytest.raises(ModelBreakdownError):
        QuantizedModel(quantum=0.3 * 2.7e15 ** 2 / 1.3e20, mu=1.3e20, h=2.7e15)
    # every model is an orbit model: h is required
    with pytest.raises(TypeError):
        QuantizedModel(quantum=0.0, mu=1.3e20)


def test_gr_baseline_values(mercury, venus, earth):
    gr_mercury = gr_precession_baseline(mercury)
    gr_venus = gr_precession_baseline(venus)
    gr_earth = gr_precession_baseline(earth)
    # direct arithmetic: 6 pi GM / (c^2 a (1-e^2)) scaled by orbits/century
    assert gr_mercury.per_century_arcsec == pytest.approx(42.980499002312456, rel=1e-12)
    assert gr_venus.per_century_arcsec == pytest.approx(8.624593430953787, rel=1e-12)
    assert gr_earth.per_century_arcsec == pytest.approx(3.8387021902105065, rel=1e-12)
    assert gr_mercury.per_century_arcsec == pytest.approx(42.98, abs=0.15)
    assert gr_venus.per_century_arcsec == pytest.approx(8.62, abs=0.05)
    assert gr_earth.per_century_arcsec == pytest.approx(3.84, abs=0.03)
    assert gr_mercury.provenance is Provenance.GR_BASELINE


def test_gr_baseline_consistency(mercury):
    result = gr_precession_baseline(mercury)
    orbit = derive_orbit(mercury)
    assert result.per_century_arcsec == pytest.approx(
        result.per_orbit_rad * orbit.orbits_per_century * ARCSEC_PER_RAD, rel=1e-13)


def test_gr_baseline_beyond_the_float_range():
    # valid elements whose per-orbit advance times the orbit count per
    # century overflows; inf would print as Infinity, which is not JSON
    tiny = PlanetElements(name="Tiny", a=1e-100, e=0.1, tau_days=1e-300)
    with pytest.raises(DomainError, match="Tiny: the GR baseline"):
        gr_precession_baseline(tiny)

"""Analytic precession pipeline for the quantized-length force.

With the corrected force, the orbit equation in u = 1/r linearizes (dropping
terms beyond first order in the quantum q) to

    u'' + (1 - q mu / h^2) u = mu / h^2

whose solution is the quasi-conic

    r = p / (1 + A p cos(x theta)),   p = (h^2 - q mu)/mu,   x = sqrt(1 - q mu/h^2).

For x < 1 the ellipse opens into a rosette with perihelia at theta = 2 n pi / x,
so the perihelion advances by 2 pi (1/x - 1) per revolution.

Numerical note: with planetary parameters 1 - x is of order 1e-7, so the
advance is formed from eps = q mu / h^2 directly (2 pi eps / (x (1 + x)),
identical algebraically to 2 pi (1/x - 1)); routing the value through a
rounded x near 1 would cap round-trip accuracy near 1e-9.

eps with the breakdown rule (forces._epsilon) and PrecessionResult come
from forces, the layer below.
"""

from __future__ import annotations

import enum
import math

from .bodies import (_FLOAT_MAX, ARCSEC_PER_RAD, DerivedOrbit, PlanetElements,
                     arcsec_to_rad, derive_orbit)
from .errors import DomainError
from .forces import _EPS_BOX, _X_BOX, PrecessionResult, Provenance, _epsilon


class QuantumRule(enum.Enum):
    """Which orbit length scale the measurement error multiplies.

    The perihelion-distance rule (q = delta_rad * a(1-e)) reproduces the
    reference precession table; the semi-minor-axis rule (q = delta_rad * b)
    is selectable for comparison and differs by >20% at Mercury's
    eccentricity. They coincide for circular orbits. Functions taking a rule
    accept a member or its value and raise DomainError for anything else.
    """

    PERIHELION = "perihelion"
    SEMIMINOR = "semiminor"


def _check_delta(delta_arcsec: float) -> None:
    if not 0.0 <= delta_arcsec <= _FLOAT_MAX:
        raise DomainError(f"measurement error must be >= 0 arcsec, got {delta_arcsec!r}")


# Bound once: each read of a member through its class costs about 0.1 us.
_PERIHELION, _SEMIMINOR = QuantumRule.PERIHELION, QuantumRule.SEMIMINOR


def _scale(orbit: DerivedOrbit, rule: QuantumRule | str) -> float:
    """The length a QuantumRule or its value multiplies: r_p or b, else DomainError."""
    if rule is _PERIHELION or rule == "perihelion":
        return orbit.r_p
    if rule is _SEMIMINOR or rule == "semiminor":
        return orbit.b
    raise DomainError(f"quantum rule must be 'perihelion' or 'semiminor', got {rule!r}")


def quantum_from_error(delta_arcsec: float, orbit: DerivedOrbit,
                       rule: QuantumRule = QuantumRule.PERIHELION) -> float:
    """Space quantum implied by a measurement error of delta arcseconds.

    The angular error is converted to radians and multiplied by the orbit
    scale the rule selects (perihelion distance or semi-minor axis), giving
    a length; DomainError for a negative delta or an unknown rule.
    """
    _check_delta(delta_arcsec)
    return arcsec_to_rad(delta_arcsec) * _scale(orbit, rule)


def orbit_params(quantum: float, orbit: DerivedOrbit) -> tuple[float, float]:
    """Semi-latus rectum p and frequency ratio x for a quantum on an orbit.

    p = (h^2 - q mu)/mu and x = sqrt(1 - eps) with eps = q mu/h^2, so
    x^2 + eps = 1 exactly. eps comes from forces._epsilon, which raises
    ModelBreakdownError when the quantum is too large for the orbit: when
    the exact orbit from its perihelion is unbounded, which holds for every
    eps >= 1/4.
    """
    if not 0.0 <= quantum <= _FLOAT_MAX:
        raise DomainError(f"space quantum must be >= 0, got {quantum!r}")
    eps = _epsilon(quantum, orbit.mu, orbit.h, orbit.r_p)
    x = math.sqrt(1.0 - eps)
    p = (orbit.h * orbit.h - quantum * orbit.mu) / orbit.mu
    return p, x


def _advance_from_eps(eps: float) -> float:
    # 2 pi (1/x - 1) with x = sqrt(1 - eps), written so the small advance is
    # produced from eps at full relative precision.
    x = math.sqrt(1.0 - eps)
    return 2.0 * math.pi * eps / (x * (1.0 + x))


def planet_precession(el: PlanetElements, delta_arcsec: float,
                      rule: QuantumRule = QuantumRule.PERIHELION) -> PrecessionResult:
    """Full analytic chain: elements + measurement error -> centurial precession.

    The rule and delta are checked here. The quantum is formed with
    arcsec_to_rad's operations, and eps = q mu/h^2 and the breakdown rule
    come from forces._epsilon, as in orbit_params, here naming the planet.
    The advance is evaluated from eps directly (see module note), so that
    inverting the result recovers delta to ~1e-15.
    """
    orbit = derive_orbit(el)
    scale = _scale(orbit, rule)
    _check_delta(delta_arcsec)
    quantum = delta_arcsec * math.pi / 648000.0 * scale
    per_orbit = _advance_from_eps(_epsilon(quantum, orbit.mu, orbit.h, orbit.r_p, el.name))
    return PrecessionResult(
        per_orbit_rad=per_orbit,
        per_century_arcsec=per_orbit * orbit.orbits_per_century * ARCSEC_PER_RAD,
        provenance=Provenance.ANALYTIC,
    )


def _advances(orbit: DerivedOrbit, scale: float, deltas: list[float],
              name: str) -> list[tuple[float, float]]:
    """sweep_delta's rows (delta, arcsec/century) on the orbit of the planet
    name, read once, each what planet_precession gives, bit for bit; the
    caller checks each delta.

    q and eps never fall as delta rises, so when the largest row (one of the
    last two: the grid rises up to the last but one) is inside the breakdown
    box, every row is. Past it, forces._epsilon checks the rows in turn, and
    the first that the rule refuses raises, naming the planet. The rows
    repeat planet_precession's operations inline.
    """
    pi = math.pi
    mu = orbit.mu
    h2 = orbit.h * orbit.h
    quantum = max(deltas[-2:]) * pi / 648000.0 * scale
    if not (quantum * mu / h2 < _EPS_BOX and quantum < _X_BOX * orbit.r_p):
        for delta in deltas:
            _epsilon(delta * pi / 648000.0 * scale, mu, orbit.h, orbit.r_p, name)
    orbits_per_century = orbit.orbits_per_century
    return [(delta, _advance_from_eps(delta * pi / 648000.0 * scale * mu / h2)
             * orbits_per_century * ARCSEC_PER_RAD) for delta in deltas]

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
from .forces import PrecessionResult, Provenance, _epsilon


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
    a length; DomainError for a negative or non-finite delta, checked first,
    or an unknown rule. The one former of q from delta.
    """
    if not 0.0 <= delta_arcsec <= _FLOAT_MAX:
        raise DomainError(f"measurement error must be >= 0 arcsec, got {delta_arcsec!r}")
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

    The one definition of what a delta gives and what it refuses: the
    quantum comes from quantum_from_error (so a bad delta is reported
    before a bad rule), and eps = q mu/h^2 and the breakdown rule from
    forces._epsilon, as in orbit_params, here naming the planet. The
    advance is evaluated from eps directly (see module note), so that
    inverting the result recovers delta to ~1e-15. calibrate's row paths
    ask it wherever they leave the box in which the rule always passes.
    """
    orbit = derive_orbit(el)
    quantum = quantum_from_error(delta_arcsec, orbit, rule)
    per_orbit = _advance_from_eps(_epsilon(quantum, orbit.mu, orbit.h, orbit.r_p, el.name))
    return PrecessionResult(
        per_orbit_rad=per_orbit,
        per_century_arcsec=per_orbit * orbit.orbits_per_century * ARCSEC_PER_RAD,
        provenance=Provenance.ANALYTIC,
    )

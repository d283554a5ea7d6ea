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
"""

from __future__ import annotations

import enum
import math

from .bodies import (ARCSEC_PER_RAD, DerivedOrbit, PlanetElements,
                     arcsec_to_rad, derive_orbit)
from .errors import DomainError, ModelBreakdownError
from .record import Record


class QuantumRule(enum.Enum):
    """Which orbit length scale the measurement error multiplies.

    The perihelion-distance rule (q = delta_rad * a(1-e)) reproduces the
    reference precession table; the semi-minor-axis rule (q = delta_rad * b)
    is selectable for comparison and differs by >20% at Mercury's
    eccentricity. They coincide for circular orbits.
    """

    PERIHELION = "perihelion"
    SEMIMINOR = "semiminor"


class Provenance(enum.Enum):
    ANALYTIC = "analytic"
    NUMERIC = "numeric"
    GR_BASELINE = "gr-baseline"


class PrecessionResult(Record):
    """Perihelion advance per orbit (rad) and per Julian century (arcsec)."""

    _fields = ("per_orbit_rad", "per_century_arcsec", "provenance")

    def __init__(self, per_orbit_rad: float, per_century_arcsec: float,
                 provenance: Provenance) -> None:
        self.__dict__.update(per_orbit_rad=per_orbit_rad, per_century_arcsec=per_century_arcsec,
                             provenance=provenance)


def _check_delta(delta_arcsec: float) -> None:
    if not (math.isfinite(delta_arcsec) and delta_arcsec >= 0):
        raise DomainError(f"measurement error must be >= 0 arcsec, got {delta_arcsec!r}")


def _scale(orbit: DerivedOrbit, rule: QuantumRule) -> float:
    """The orbit length the rule multiplies: perihelion distance or semi-minor axis."""
    return orbit.r_p if rule is QuantumRule.PERIHELION else orbit.b


def quantum_from_error(delta_arcsec: float, orbit: DerivedOrbit,
                       rule: QuantumRule = QuantumRule.PERIHELION) -> float:
    """Space quantum implied by a measurement error of delta arcseconds.

    The angular error is converted to radians and multiplied by the orbit
    scale the rule selects (perihelion distance or semi-minor axis), giving
    a length.
    """
    _check_delta(delta_arcsec)
    return arcsec_to_rad(delta_arcsec) * _scale(orbit, rule)


def orbit_params(quantum: float, orbit: DerivedOrbit) -> tuple[float, float]:
    """Semi-latus rectum p and frequency ratio x for a quantum on an orbit.

    p = (h^2 - q mu)/mu and x = sqrt(1 - eps) with eps = q mu/h^2, so
    x^2 + eps = 1 exactly. Raises ModelBreakdownError when the quantum is
    too large for the orbit: when the exact orbit from its perihelion is
    unbounded (see _check_bounded), which holds for every eps >= 1/4.
    """
    if not (math.isfinite(quantum) and quantum >= 0):
        raise DomainError(f"space quantum must be >= 0, got {quantum!r}")
    eps = quantum * orbit.mu / (orbit.h * orbit.h)
    _check_bounded(quantum, eps, quantum / orbit.r_p)
    x = math.sqrt(1.0 - eps)
    p = (orbit.h * orbit.h - quantum * orbit.mu) / orbit.mu
    return p, x


# _check_bounded passes inside eps < _EPS_BOX, x_p < _X_BOX (see its
# docstring), so row loops test this box inline and call it only outside.
_EPS_BOX = 0.01
_X_BOX = 0.9


def _check_bounded(quantum: float, eps: float, x_p: float | None = None) -> None:
    """The breakdown rule: raise ModelBreakdownError unless the exact orbit is bounded.

    eps = q mu/h^2, and x_p = q/r_p places the orbit's perihelion. With the
    first integral u'^2/2 + W(u) = W(u_p), where
    W(u) = u^2/2 + (c/q) log1p(-q u) and c = mu/h^2, the orbit from rest at
    its perihelion stays bounded only behind the barrier of W at
    u+ = (1 + sqrt(1 - 4 eps))/(2q), the larger root of u (1 - q u) = c.
    It falls into the quantum if eps >= 1/4 (no barrier), u_p >= u+, or
    W(u_p) >= W(u+). Both sides are compared as
    q^2 W = x^2/2 + eps log1p(-x) in x = q u, which cannot overflow, with
    1 - x+ = 2 eps/(1 + s) formed without cancellation. With x_p omitted
    (a model with no perihelion) only eps >= 1/4 is refused. eps = 0 (q = 0,
    Newton's conic) always passes.

    The box eps < 0.01, x_p < 0.9 always passes:
    - x+ falls as eps grows and is 0.9899 at eps = 0.01, above 0.9 > x_p;
    - q^2 W(x+) falls as eps grows, since its derivative in eps is
      log(1 - x+) < 0 (W' vanishes at x+), and is 0.444 at eps = 0.01,
      above x_p^2/2 < 0.405, which bounds q^2 W(x_p) because log1p(-x_p) < 0.
    """
    if eps < 0.25:
        if x_p is None or eps == 0.0:
            return
        s = math.sqrt(1.0 - 4.0 * eps)
        x_plus = 0.5 * (1.0 + s)
        if x_p < x_plus:
            w_p = 0.5 * x_p * x_p + eps * math.log1p(-x_p)
            w_plus = 0.5 * x_plus * x_plus + eps * math.log(2.0 * eps / (1.0 + s))
            if w_p < w_plus:
                return
    raise ModelBreakdownError(
        f"quantum {quantum!r} m too large for this orbit: the exact orbit "
        f"from perihelion is unbounded (epsilon = {eps!r})"
    )


def _advance_from_eps(eps: float) -> float:
    # 2 pi (1/x - 1) with x = sqrt(1 - eps), written so the small advance is
    # produced from eps at full relative precision.
    x = math.sqrt(1.0 - eps)
    return 2.0 * math.pi * eps / (x * (1.0 + x))


def planet_precession(el: PlanetElements, delta_arcsec: float,
                      rule: QuantumRule = QuantumRule.PERIHELION) -> PrecessionResult:
    """Full analytic chain: elements + measurement error -> centurial precession.

    Composes derive_orbit, quantum_from_error, orbit_params and the advance
    formulas; the advance is evaluated from eps = q mu/h^2 directly (see
    module note) so that inverting the result recovers delta to ~1e-15.
    """
    [(per_orbit, per_century)] = _advances(derive_orbit(el), [delta_arcsec], rule)
    return PrecessionResult(
        per_orbit_rad=per_orbit,
        per_century_arcsec=per_century,
        provenance=Provenance.ANALYTIC,
    )


def _advances(orbit: DerivedOrbit, deltas: list[float],
              rule: QuantumRule) -> list[tuple[float, float]]:
    """(rad/orbit, arcsec/century) for each delta on an already derived orbit.

    The body of planet_precession, shared with sweep_delta so that a sweep
    reads its orbit once rather than once per row. Each quantum and eps is
    formed as quantum_from_error and orbit_params form it, operation for
    operation, so the values agree bit for bit; the century figure is the
    per-orbit advance times orbits per century times arcsec per radian.
    """
    scale = _scale(orbit, rule)
    mu = orbit.mu
    h2 = orbit.h * orbit.h
    quantum_box = _X_BOX * orbit.r_p
    orbits_per_century = orbit.orbits_per_century
    rows = []
    for delta_arcsec in deltas:
        _check_delta(delta_arcsec)
        quantum = arcsec_to_rad(delta_arcsec) * scale
        eps = quantum * mu / h2
        if not (eps < _EPS_BOX and quantum < quantum_box):
            _check_bounded(quantum, eps, quantum / orbit.r_p)
        per_orbit = _advance_from_eps(eps)
        rows.append((per_orbit, per_orbit * orbits_per_century * ARCSEC_PER_RAD))
    return rows

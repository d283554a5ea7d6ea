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
from dataclasses import dataclass

from .bodies import (ARCSEC_PER_RAD, CONSTANTS, DerivedOrbit, PlanetElements,
                     arcsec_to_rad, derive_orbit)
from .errors import DomainError, ModelBreakdownError


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


@dataclass(frozen=True)
class AnalyticOrbit:
    """Closed-form rosette orbit r = p / (1 + A p cos(x theta)).

    semi_latus  p, m
    freq_ratio  x in (0, 1]; x < 1 makes the perihelion precess
    amplitude   A, 1/m; the orbit is bound iff |A| p < 1
    """

    semi_latus: float
    freq_ratio: float
    amplitude: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.semi_latus) and self.semi_latus > 0):
            raise DomainError(f"semi-latus rectum must be positive, got {self.semi_latus!r}")
        if not 0.0 < self.freq_ratio <= 1.0:
            raise DomainError(f"frequency ratio must lie in (0, 1], got {self.freq_ratio!r}")
        if not math.isfinite(self.amplitude):
            raise DomainError(f"amplitude must be finite, got {self.amplitude!r}")

    @property
    def bound(self) -> bool:
        return abs(self.amplitude) * self.semi_latus < 1.0


@dataclass(frozen=True)
class PrecessionResult:
    """Perihelion advance per orbit (rad) and per Julian century (arcsec)."""

    per_orbit_rad: float
    per_century_arcsec: float
    provenance: Provenance


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
    x^2 + eps = 1 exactly. eps >= 1 means the quantum exceeds what the
    orbit can sustain.
    """
    if not (math.isfinite(quantum) and quantum >= 0):
        raise DomainError(f"space quantum must be >= 0, got {quantum!r}")
    eps = quantum * orbit.mu / (orbit.h * orbit.h)
    if eps >= 1.0:
        raise ModelBreakdownError(
            f"quantum {quantum!r} m too large for this orbit: epsilon = {eps!r} >= 1"
        )
    x = math.sqrt(1.0 - eps)
    p = (orbit.h * orbit.h - quantum * orbit.mu) / orbit.mu
    return p, x


def amplitude_from_perihelion(semi_latus: float, r_p: float) -> float:
    """Amplitude fixing theta = 0 as a perihelion at distance r_p: A = 1/r_p - 1/p."""
    if not (math.isfinite(semi_latus) and semi_latus > 0):
        raise DomainError(f"semi-latus rectum must be positive, got {semi_latus!r}")
    if not (math.isfinite(r_p) and r_p > 0):
        raise DomainError(f"perihelion distance must be positive, got {r_p!r}")
    return 1.0 / r_p - 1.0 / semi_latus


def analytic_orbit(quantum: float, orbit: DerivedOrbit) -> AnalyticOrbit:
    """Closed-form orbit for a quantum, anchored at the orbit's perihelion."""
    p, x = orbit_params(quantum, orbit)
    return AnalyticOrbit(semi_latus=p, freq_ratio=x,
                         amplitude=amplitude_from_perihelion(p, orbit.r_p))


def closed_form_radius(sol: AnalyticOrbit, theta):
    """Radius r(theta) = p / (1 + A p cos(x theta)); accepts scalars or arrays.

    Periodic with period 2 pi / x; minima (perihelia) at theta = 2 n pi / x.
    """
    import numpy as np  # only here: the rest of the analytic chain is plain math

    if not sol.bound:
        raise DomainError(
            f"orbit is unbound (|A| p = {abs(sol.amplitude) * sol.semi_latus!r} >= 1)"
        )
    th = np.asarray(theta, dtype=float)
    r = sol.semi_latus / (1.0 + sol.amplitude * sol.semi_latus
                          * np.cos(sol.freq_ratio * th))
    if np.ndim(theta) == 0:
        return float(r)
    return r


def precession_per_orbit(freq_ratio: float) -> float:
    """Perihelion advance per revolution, 2 pi (1/x - 1) >= 0.

    Formed as 2 pi (1 - x)/x: for x in [0.5, 1] the difference 1 - x is
    exact in floating point, so no precision is lost to cancellation.
    """
    if not (math.isfinite(freq_ratio) and 0.0 < freq_ratio <= 1.0):
        raise DomainError(f"frequency ratio must lie in (0, 1], got {freq_ratio!r}")
    return 2.0 * math.pi * (1.0 - freq_ratio) / freq_ratio


def precession_per_century(per_orbit_rad: float, orbit: DerivedOrbit) -> float:
    """Per-century advance in arcseconds: per-orbit x orbits/century x arcsec/rad."""
    if not (math.isfinite(per_orbit_rad) and per_orbit_rad >= 0):
        raise DomainError(f"per-orbit advance must be >= 0 rad, got {per_orbit_rad!r}")
    return per_orbit_rad * orbit.orbits_per_century * ARCSEC_PER_RAD


def _advance_from_eps(eps: float) -> float:
    # 2 pi (1/x - 1) with x = sqrt(1 - eps), written so the small advance is
    # produced from eps at full relative precision.
    x = math.sqrt(1.0 - eps)
    return 2.0 * math.pi * eps / (x * (1.0 + x))


def planet_precession(el: PlanetElements, delta_arcsec: float,
                      rule: QuantumRule = QuantumRule.PERIHELION,
                      mu: float = CONSTANTS.gm_sun) -> PrecessionResult:
    """Full analytic chain: elements + measurement error -> centurial precession.

    Composes derive_orbit, quantum_from_error, orbit_params and the advance
    formulas; the advance is evaluated from eps = q mu/h^2 directly (see
    module note) so that inverting the result recovers delta to ~1e-15.
    """
    [(per_orbit, per_century)] = _advances(derive_orbit(el, mu), [delta_arcsec], rule, el.name)
    return PrecessionResult(
        per_orbit_rad=per_orbit,
        per_century_arcsec=per_century,
        provenance=Provenance.ANALYTIC,
    )


def _advances(orbit: DerivedOrbit, deltas: list[float], rule: QuantumRule,
              name: str) -> list[tuple[float, float]]:
    """(rad/orbit, arcsec/century) for each delta on an already derived orbit.

    The body of planet_precession, shared with sweep_delta so that a sweep
    reads its orbit once rather than once per row. Each row is formed as
    quantum_from_error, orbit_params and precession_per_century would form
    it, operation for operation, so the values agree bit for bit.
    """
    scale = _scale(orbit, rule)
    mu = orbit.mu
    h2 = orbit.h * orbit.h
    orbits_per_century = orbit.orbits_per_century
    rows = []
    for delta_arcsec in deltas:
        _check_delta(delta_arcsec)
        quantum = arcsec_to_rad(delta_arcsec) * scale
        eps = quantum * mu / h2
        if eps >= 1.0:
            raise ModelBreakdownError(
                f"quantum {quantum!r} m too large for {name}: epsilon = {eps!r} >= 1"
            )
        per_orbit = _advance_from_eps(eps)
        rows.append((per_orbit, per_orbit * orbits_per_century * ARCSEC_PER_RAD))
    return rows

"""Calibration of the measurement-error parameter against observed precession.

The centurial precession is linear in the error angle delta to within one
part in 1e6 over the working range (the exact map deviates only at order
eps ~ 2e-7), so a single weighted-least-squares pass through the origin
fits delta across planets with provably negligible linearization error; no
iterative optimizer is warranted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from .bodies import (ARCSEC_PER_RAD, OBSERVATIONS_FILENAME, PlanetElements,
                     _check_unique, _check_unpadded, _is_finite_number,
                     _is_version_one, _read_json, bundled_data_path,
                     derive_orbit, load_planets, planet_by_name, rad_to_arcsec)
from .errors import DomainError, IngestionError
from .precession import (_EPS_BOX, _X_BOX, QuantumRule, _advances,
                         _check_bounded, _scale, planet_precession)

# Linearization point for the per-planet slopes d(precession)/d(delta).
DELTA_REF = 0.01


@dataclass(frozen=True)
class Observation:
    """Observed centurial precession for one planet, with 1-sigma error."""

    planet: str
    value_arcsec: float
    sigma_arcsec: float

    def __post_init__(self) -> None:
        if not self.planet or not isinstance(self.planet, str):
            raise IngestionError("observation record: planet must be a non-empty string")
        _check_unpadded(self.planet, "observation")
        for field in ("value_arcsec", "sigma_arcsec"):
            value = getattr(self, field)
            if not _is_finite_number(value):
                raise IngestionError(
                    f"observation {self.planet!r}: {field} must be a finite number, got {value!r}"
                )
        if self.sigma_arcsec <= 0:
            raise IngestionError(
                f"observation {self.planet!r}: sigma must be positive, got {self.sigma_arcsec!r}"
            )


@dataclass(frozen=True)
class FitResult:
    """Weighted-least-squares estimate of the shared error angle delta.

    delta_star / delta_sigma are the estimate and its formal standard error
    (arcsec); residuals are observed minus predicted-at-delta_star per
    planet (arcsec/century); chi2 is the weighted residual sum of squares.
    """

    delta_star: float
    delta_sigma: float
    residuals: dict[str, float]
    predicted: dict[str, float]
    chi2: float


_OBS_FIELDS = {"planet", "value_arcsec", "sigma_arcsec"}


def load_observations(source: str | Path | IO[str] | None = None) -> list[Observation]:
    """Load observed precession values from a JSON document.

    Schema: {"observations": [{"planet", "value_arcsec", "sigma_arcsec"}]}
    with an optional schema_version field. With no source, the bundled
    table (or its QGRAV_DATA_DIR override) is used. Each planet may be
    observed once, compared ignoring case.
    """
    if source is None:
        source = bundled_data_path(OBSERVATIONS_FILENAME)
    doc = _read_json(source, "observations")
    if not isinstance(doc, dict):
        raise IngestionError("observations file must be a JSON object")
    extra = set(doc) - {"schema_version", "observations"}
    if extra:
        raise IngestionError(f"observations file has unknown top-level fields: {sorted(extra)}")
    if "schema_version" in doc and not _is_version_one(doc["schema_version"]):
        raise IngestionError(
            f"observations file schema_version must be 1, got {doc['schema_version']!r}"
        )
    records = doc.get("observations")
    if not isinstance(records, list):
        raise IngestionError("observations file must carry an 'observations' list")
    out: list[Observation] = []
    seen: set[str] = set()
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise IngestionError(f"observation record #{index} is not an object")
        fields = set(record)
        if fields != _OBS_FIELDS:
            label = record.get("planet", f"#{index}")
            raise IngestionError(
                f"observation record {label!r}: fields must be exactly "
                f"{sorted(_OBS_FIELDS)}, got {sorted(fields)}"
            )
        obs = Observation(planet=record["planet"],
                          value_arcsec=record["value_arcsec"],
                          sigma_arcsec=record["sigma_arcsec"])
        _check_unique(obs.planet, seen, "observation")
        out.append(obs)
    return out


def invert_delta(el: PlanetElements, target_arcsec: float,
                 rule: QuantumRule = QuantumRule.PERIHELION) -> float:
    """Error angle delta whose predicted centurial precession equals target.

    Closed-form inversion of the analytic chain: the per-orbit advance is
    recovered from the per-century value, the frequency ratio from the
    advance, the quantum from the ratio, delta from the quantum. Every
    small quantity is carried in full relative precision, so composing with
    planet_precession is the identity to roundoff.
    """
    if not (math.isfinite(target_arcsec) and target_arcsec >= 0):
        raise DomainError(f"target precession must be >= 0, got {target_arcsec!r}")
    orbit = derive_orbit(el)
    advance = target_arcsec / (orbit.orbits_per_century * ARCSEC_PER_RAD)
    two_pi = 2.0 * math.pi
    freq_ratio = two_pi / (two_pi + advance)
    # 1 - x^2 = (1 - x)(1 + x) with 1 - x = advance / (2 pi + advance): no
    # cancellation, unlike forming 1 - freq_ratio**2 near freq_ratio = 1.
    eps = (advance / (two_pi + advance)) * (1.0 + freq_ratio)
    quantum = eps * orbit.h * orbit.h / orbit.mu
    if not (eps < _EPS_BOX and quantum < _X_BOX * orbit.r_p):
        _check_bounded(quantum, eps, quantum / orbit.r_p)
    return rad_to_arcsec(quantum / _scale(orbit, rule))


def fit_delta(observations: list[Observation],
              rule: QuantumRule = QuantumRule.PERIHELION,
              planets: list[PlanetElements] | None = None) -> FitResult:
    """Weighted least squares for one delta shared by all observed planets.

    The model is predicted_i = s_i * delta with slope s_i evaluated at
    DELTA_REF; weights are 1/sigma_i^2. Residuals and chi2 are reported
    against the full (unlinearized) prediction at the fitted delta. Each
    planet may be observed once, compared ignoring case.
    """
    if not observations:
        raise DomainError("fit requires at least one observation")
    seen: set[str] = set()
    for obs in observations:
        _check_unique(obs.planet, seen, "observation")
    if planets is None:
        planets = load_planets()
    elements = {obs.planet: planet_by_name(planets, obs.planet) for obs in observations}

    slopes = {
        obs.planet: planet_precession(elements[obs.planet], DELTA_REF, rule).per_century_arcsec / DELTA_REF
        for obs in observations
    }
    wsum_so = 0.0
    wsum_ss = 0.0
    for obs in observations:
        w = 1.0 / (obs.sigma_arcsec * obs.sigma_arcsec)
        s = slopes[obs.planet]
        wsum_so += w * s * obs.value_arcsec
        wsum_ss += w * s * s
    # A quantum length cannot be negative; clamp the unconstrained optimum.
    delta_star = max(wsum_so / wsum_ss, 0.0)
    delta_sigma = wsum_ss ** -0.5

    predicted = {
        obs.planet: planet_precession(elements[obs.planet], delta_star, rule).per_century_arcsec
        for obs in observations
    }
    residuals = {obs.planet: obs.value_arcsec - predicted[obs.planet] for obs in observations}
    chi2 = sum((residuals[obs.planet] / obs.sigma_arcsec) ** 2 for obs in observations)
    return FitResult(delta_star=delta_star, delta_sigma=delta_sigma,
                     residuals=residuals, predicted=predicted, chi2=chi2)


def sweep_delta(el: PlanetElements, delta_min: float, delta_max: float,
                steps: int,
                rule: QuantumRule = QuantumRule.PERIHELION) -> list[tuple[float, float]]:
    """Evenly spaced (delta, arcsec/century) rows over [delta_min, delta_max]."""
    if not (math.isfinite(delta_min) and math.isfinite(delta_max)):
        raise DomainError("sweep bounds must be finite")
    if not 0.0 <= delta_min < delta_max:
        raise DomainError(
            f"sweep needs 0 <= delta_min < delta_max, got [{delta_min!r}, {delta_max!r}]"
        )
    if steps < 2:
        raise DomainError(f"sweep needs at least 2 steps, got {steps!r}")
    span = delta_max - delta_min
    # endpoints are hit exactly, not via accumulated float arithmetic
    deltas = [delta_min + span * i / (steps - 1) for i in range(steps - 1)] + [delta_max]
    # the same values as planet_precession(el, delta, rule), bit for bit
    advances = _advances(derive_orbit(el), deltas, rule)
    return [(delta, per_century) for delta, (_, per_century) in zip(deltas, advances)]

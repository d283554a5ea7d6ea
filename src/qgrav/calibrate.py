"""Calibration of the measurement-error parameter against observed precession.

The centurial precession is linear in the error angle delta to within one
part in 1e6 over the working range (the exact map deviates only at order
eps ~ 2e-7), so a single weighted-least-squares pass through the origin
fits delta across planets with provably negligible linearization error; no
iterative optimizer is warranted.
"""

from __future__ import annotations

import io
import math
import operator
from pathlib import Path

from .bodies import (_FLOAT_MAX, ARCSEC_PER_RAD, PlanetElements, _check_record,
                     _check_unique, _load_records, derive_orbit, load_planets,
                     planet_by_name)
from .errors import DomainError, IngestionError
from .forces import _EPS_BOX, _X_BOX
from .precession import QuantumRule, _advance_from_eps, _scale, planet_precession
from .record import Record

# Linearization point for the per-planet slopes d(precession)/d(delta).
DELTA_REF = 0.01


class Observation(Record):
    """Observed centurial precession for one planet, with 1-sigma error."""

    _fields = ("planet", "value_arcsec", "sigma_arcsec")

    def __init__(self, planet: str, value_arcsec: float, sigma_arcsec: float) -> None:
        self.__dict__.update(planet=planet, value_arcsec=value_arcsec,
                             sigma_arcsec=sigma_arcsec)
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_record(self, "observation", "planet", ("value_arcsec", "sigma_arcsec"))
        if self.sigma_arcsec <= 0:
            raise IngestionError(
                f"observation {self.planet!r}: sigma must be positive, got {self.sigma_arcsec!r}"
            )
        # The fit weighs by 1/sigma^2, which must not under- or overflow;
        # float() keeps an int sigma from squaring past the float range.
        sigma = float(self.sigma_arcsec)
        sigma2 = sigma * sigma
        if not (math.isfinite(sigma2) and sigma2 > 0 and math.isfinite(1.0 / sigma2)):
            raise IngestionError(
                f"observation {self.planet!r}: sigma^2 and its inverse must be finite and "
                f"positive, got sigma {self.sigma_arcsec!r}"
            )


class FitResult(Record):
    """Weighted-least-squares estimate of the shared error angle delta.

    delta_star / delta_sigma are the estimate and its formal standard error
    (arcsec); residuals are observed minus predicted-at-delta_star per
    planet (arcsec/century); chi2 is the weighted residual sum of squares.
    """

    _fields = ("delta_star", "delta_sigma", "residuals", "predicted", "chi2")

    def __init__(self, delta_star: float, delta_sigma: float, residuals: dict[str, float],
                 predicted: dict[str, float], chi2: float) -> None:
        self.__dict__.update(delta_star=delta_star, delta_sigma=delta_sigma,
                             residuals=residuals, predicted=predicted, chi2=chi2)


_OBS_FIELDS = {"planet", "value_arcsec", "sigma_arcsec"}


def load_observations(source: str | Path | io.TextIOBase | None = None) -> list[Observation]:
    """Load observed precession values from a JSON document.

    Schema: {"observations": [{"planet", "value_arcsec", "sigma_arcsec"}]}
    with an optional schema_version field. With no source, the bundled
    table (or its QGRAV_DATA_DIR override) is used. Each planet may be
    observed once, compared ignoring case.
    """
    return _load_records(source, "observations", "observation", _OBS_FIELDS, "planet",
                         lambda r: Observation(**r), version_required=False)


def invert_delta(el: PlanetElements, target_arcsec: float,
                 rule: QuantumRule = QuantumRule.PERIHELION) -> float:
    """Error angle delta whose predicted centurial precession equals target.

    Closed-form inversion of the analytic chain: the per-orbit advance is
    recovered from the per-century value, the frequency ratio from the
    advance, the quantum from the ratio, delta from the quantum. Every
    small quantity is carried in full relative precision, so composing with
    planet_precession is the identity to roundoff.

    invert_delta refuses what planet_precession refuses, with its message:
    inside the breakdown box the inverted eps and q pass the rule, and so
    do the forward ones a few ulps from them; past it planet_precession is
    asked about the delta returned. An advance past the float range takes
    the limit eps = 1, which the rule refuses. eps <= 2 leaves q/scale <= 4
    rad, so delta needs no range check.
    """
    orbit = derive_orbit(el)
    scale = _scale(orbit, rule)
    if not 0.0 <= target_arcsec <= _FLOAT_MAX:
        raise DomainError(f"target precession must be >= 0, got {target_arcsec!r}")
    advance = target_arcsec / (orbit.orbits_per_century * ARCSEC_PER_RAD)
    two_pi = math.tau
    freq_ratio = two_pi / (two_pi + advance)
    # 1 - x^2 = (1 - x)(1 + x) with 1 - x = advance / (2 pi + advance): no
    # cancellation, unlike forming 1 - freq_ratio**2 near freq_ratio = 1. An
    # infinite advance takes the limit 1 - x = 1, where the ratio is inf/inf.
    one_minus_x = advance / (two_pi + advance) if advance <= _FLOAT_MAX else 1.0
    eps = one_minus_x * (1.0 + freq_ratio)
    quantum = eps * orbit.h * orbit.h / orbit.mu
    delta = quantum / scale * ARCSEC_PER_RAD
    if not (eps < _EPS_BOX and quantum < _X_BOX * orbit.r_p):
        planet_precession(el, delta, rule)
    return delta


def fit_delta(observations: list[Observation],
              rule: QuantumRule = QuantumRule.PERIHELION,
              planets: list[PlanetElements] | None = None) -> FitResult:
    """Weighted least squares for one delta shared by all observed planets.

    The model is predicted_i = s_i * delta with slope s_i evaluated at
    DELTA_REF; weights are 1/sigma_i^2. Residuals and chi2 are reported
    against the full (unlinearized) prediction at the fitted delta. Each
    planet may be observed once, compared ignoring case. Sums that overflow
    are formed again from weights and slopes scaled by exact powers of two.
    """
    if not observations:
        raise DomainError("fit requires at least one observation")
    seen: set[str] = set()
    for obs in observations:
        _check_unique(obs.planet, seen, "observation")
    if planets is None:
        planets = load_planets()
    elements = {obs.planet: planet_by_name(planets, obs.planet) for obs in observations}

    def per_century(planet: str, delta: float) -> float:
        return planet_precession(elements[planet], delta, rule).per_century_arcsec

    slopes = [per_century(obs.planet, DELTA_REF) / DELTA_REF for obs in observations]
    weights = [1.0 / (obs.sigma_arcsec * obs.sigma_arcsec) for obs in observations]
    wsum_so, wsum_ss = _weighted_sums(observations, slopes, weights)
    # A weight near the top of the float range, or a slope past its square
    # root, overflows w * s * s. The weights are then scaled by 4**-k and, if
    # that is not enough, the slopes by 2**-j below 1: exact powers of two,
    # undone below. k = j = 0 keeps every bit of sums that are finite.
    k = j = 0
    if not (math.isfinite(wsum_so) and math.isfinite(wsum_ss)):
        k = (math.frexp(max(weights))[1] + 1) // 2
        weights = [math.ldexp(w, -2 * k) for w in weights]
        wsum_so, wsum_ss = _weighted_sums(observations, slopes, weights)
        if not math.isfinite(wsum_ss):
            j = math.frexp(max(slopes))[1]
            wsum_so, wsum_ss = _weighted_sums(
                observations, [math.ldexp(s, -j) for s in slopes], weights)
    if wsum_ss == 0.0:
        raise DomainError("the fitted delta is undetermined: the weighted squared slopes "
                          "underflow to 0")
    # A quantum length cannot be negative; clamp the unconstrained optimum.
    delta_star = max(wsum_so / wsum_ss, 0.0)
    if not math.isfinite(delta_star):
        raise DomainError("the fitted delta exceeds the float range: the weighted values overflow")
    delta_star = math.ldexp(delta_star, -j)
    delta_sigma = math.ldexp(wsum_ss ** -0.5, -k - j)

    predicted = {obs.planet: per_century(obs.planet, delta_star) for obs in observations}
    residuals = {obs.planet: obs.value_arcsec - predicted[obs.planet] for obs in observations}
    try:
        chi2 = sum((residuals[obs.planet] / obs.sigma_arcsec) ** 2 for obs in observations)
    except OverflowError:
        chi2 = math.inf
    if not math.isfinite(chi2):
        raise DomainError("chi2 exceeds the float range: the residuals lie too many "
                          "sigma from the fitted prediction")
    return FitResult(delta_star=delta_star, delta_sigma=delta_sigma,
                     residuals=residuals, predicted=predicted, chi2=chi2)


def _weighted_sums(observations: list[Observation], slopes: list[float],
                   weights: list[float]) -> tuple[float, float]:
    """(sum w s o, sum w s s) over the observations, in their order."""
    wsum_so = 0.0
    wsum_ss = 0.0
    for obs, s, w in zip(observations, slopes, weights):
        wsum_so += w * s * obs.value_arcsec
        wsum_ss += w * s * s
    return wsum_so, wsum_ss


def sweep_delta(el: PlanetElements, delta_min: float, delta_max: float,
                steps: int,
                rule: QuantumRule = QuantumRule.PERIHELION) -> list[tuple[float, float]]:
    """Evenly spaced (delta, arcsec/century) rows over [delta_min, delta_max],
    each what planet_precession gives, bit for bit.

    Only the endpoints are range-checked: an interior row overflows only if
    span * i does, when row 1 breaks down first. q never falls as delta
    rises, so if the largest row (one of the last two) is inside the
    breakdown box, every row is, and the rows repeat planet_precession's
    operations inline; past it each row is planet_precession's own call.
    """
    if not 0.0 <= delta_min < delta_max <= _FLOAT_MAX:
        raise DomainError(f"sweep needs finite 0 <= delta_min < delta_max, "
                          f"got [{delta_min!r}, {delta_max!r}]")
    try:
        n = operator.index(steps)
    except TypeError:
        n = 0
    if n < 2:
        raise DomainError(f"sweep needs at least 2 steps, got {steps!r}")
    span = delta_max - delta_min
    # endpoints are hit exactly, not via accumulated float arithmetic
    deltas = [delta_min + span * i / (n - 1) for i in range(n - 1)] + [delta_max]
    orbit = derive_orbit(el)
    scale = _scale(orbit, rule)
    pi = math.pi
    mu = orbit.mu
    h2 = orbit.h * orbit.h
    quantum = max(deltas[-2:]) * pi / 648000.0 * scale
    if not (quantum * mu / h2 < _EPS_BOX and quantum < _X_BOX * orbit.r_p):
        return [(delta, planet_precession(el, delta, rule).per_century_arcsec)
                for delta in deltas]
    orbits_per_century = orbit.orbits_per_century
    return [(delta, _advance_from_eps(delta * pi / 648000.0 * scale * mu / h2)
             * orbits_per_century * ARCSEC_PER_RAD) for delta in deltas]

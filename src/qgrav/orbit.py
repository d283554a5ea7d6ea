"""Exact orbit integration in the angle domain and numerical precession measurement.

The orbit equation for the quantized force, without any linearization, is

    d2u/dtheta2 = -u + (mu/h^2) / (1 - q u),      u = 1/r,

integrated here as a first-order system in theta with an embedded
Dormand-Prince 5(4) pair and proportional step control. theta (not time) is
the integration variable: precession is an angle-domain observable and the
closed-form solution is directly comparable, with no Kepler solve.

Perihelion passages are where du/dtheta crosses + to -. Locating them to
~1e-11 rad from step-sized samples alone is impossible (a three-point
parabola on 0.04-rad spacing carries an O(1e-6) quartic bias), so whenever
a crossing is detected the integrator re-integrates a short fixed-step
segment and inserts three extra samples bracketing the extremum 1e-3 rad
apart. detect_perihelia then refines every crossing by a local quadratic
fit of u over the three samples nearest the crossing, no two of them closer
than half the stencil spacing, which on the inserted stencil is accurate to
the roundoff floor.

The stepper, the stencil, the sample check (_integrate) and the perihelion
scan (_perihelion_angles) run on plain floats and lists, so exporting a
trajectory and measured_precession need only the standard library. numpy
is imported only by integrate and detect_perihelia, which pack those lists
into arrays.

_perihelion_start refuses, through precession.orbit_params and the
breakdown rule every path shares, a quantum whose exact orbit from the
perihelion is unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .bodies import ARCSEC_PER_RAD, PlanetElements, derive_orbit
from .errors import (DomainError, InsufficientSpanError, QgravError,
                     SingularityError, StepFailureError)
from .forces import QuantizedModel
from .precession import (PrecessionResult, Provenance, QuantumRule,
                         orbit_params, quantum_from_error)

if TYPE_CHECKING:
    import numpy as np

# Dormand-Prince 5(4) tableau (stage abscissae omitted: the system is
# autonomous in theta).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_STEP = math.pi / 16          # keeps sample gaps well under pi/8
_MAX_GAP = math.pi / 8            # a trajectory's theta gaps stay below this
_INITIAL_STEP = math.pi / 256
_STENCIL_HALF_WIDTH = 1e-3        # rad; extremum stencil spacing

TOL_MIN = 1e-14
TOL_MAX = 1e-6

_NOT_INCREASING = "trajectory samples must be strictly increasing in theta"
_TOO_SPARSE = "trajectory sampling too sparse: a theta gap reaches pi/8"


@dataclass(frozen=True)
class Trajectory:
    """Ordered integration samples plus integrator metadata."""

    theta: np.ndarray
    u: np.ndarray
    du: np.ndarray
    tol: float
    n_accepted: int
    n_rejected: int

    def __post_init__(self) -> None:
        _check_sampling(self.theta.tolist())

    def __len__(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class PerihelionSeries:
    """Refined perihelion angles and the advance of each revolution over 2 pi."""

    angles: np.ndarray
    advances: np.ndarray


def _binet_constants(model: QuantizedModel) -> tuple[float, float]:
    """(c, q) of the forcing -u + c / (1 - q u), with c = mu/h^2."""
    if model.h is None:
        raise DomainError("orbit integration requires a model with angular momentum h")
    return model.mu / (model.h * model.h), model.quantum


def _forcing_error(u: float, q: float) -> QgravError:
    """The error for a forcing evaluation at u, where u > 0 or q u < 1 fails."""
    if not u > 0:
        return DomainError(f"inverse radius must be positive, got {u!r}")
    return SingularityError(1.0 / u, q)


def _forcing(c: float, q: float, u: float) -> float:
    """-u + c / (1 - q u), raising as binet_rhs documents."""
    qu = q * u
    if qu >= 1.0 or not u > 0:
        raise _forcing_error(u, q)
    return -u + c / (1.0 - qu)


def binet_rhs(model: QuantizedModel) -> Callable[[float], float]:
    """Forcing term of the exact orbit equation for a model, as a function of u.

    Returns f with f(u) = -u + (mu/h^2) / (1 - q u). No expansion in q is
    performed; the first-order Taylor series of the second term reproduces
    the linearized equation the closed-form solution solves.
    """
    c, q = _binet_constants(model)

    def forcing(u: float) -> float:
        return _forcing(c, q, u)

    return forcing


def _dopri_step(c, q, u, v, h, f1v):
    """One Dormand-Prince step from (u, v) for the forcing -u + c / (1 - q u);
    f1v is the forcing at u (FSAL reuse).

    The forcing and its checks (_forcing) are written out at each stage.
    Returns (u_new, v_new, f_new, err_u, err_v).
    """
    k1u, k1v = v, f1v

    u2 = u + h * (_A21 * k1u)
    k2u = v + h * (_A21 * k1v)
    qu = q * u2
    if qu >= 1.0 or not u2 > 0:
        raise _forcing_error(u2, q)
    k2v = -u2 + c / (1.0 - qu)

    u3 = u + h * (_A31 * k1u + _A32 * k2u)
    k3u = v + h * (_A31 * k1v + _A32 * k2v)
    qu = q * u3
    if qu >= 1.0 or not u3 > 0:
        raise _forcing_error(u3, q)
    k3v = -u3 + c / (1.0 - qu)

    u4 = u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
    k4u = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
    qu = q * u4
    if qu >= 1.0 or not u4 > 0:
        raise _forcing_error(u4, q)
    k4v = -u4 + c / (1.0 - qu)

    u5 = u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
    k5u = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
    qu = q * u5
    if qu >= 1.0 or not u5 > 0:
        raise _forcing_error(u5, q)
    k5v = -u5 + c / (1.0 - qu)

    u6 = u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
    k6u = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
    qu = q * u6
    if qu >= 1.0 or not u6 > 0:
        raise _forcing_error(u6, q)
    k6v = -u6 + c / (1.0 - qu)

    u_new = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
    v_new = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
    qu = q * u_new
    if qu >= 1.0 or not u_new > 0:
        raise _forcing_error(u_new, q)
    f_new = -u_new + c / (1.0 - qu)
    k7u, k7v = v_new, f_new

    err_u = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
    err_v = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
    return u_new, v_new, f_new, err_u, err_v


def _refine_stencil(c, q, samples, theta_hat):
    """Re-integrate from the last accepted sample before the stencil and return
    three states at theta_hat -/0/+ s, each propagated with fixed sub-steps no
    larger than the accepted ones (local error at machine level over s)."""
    s = _STENCIL_HALF_WIDTH
    start = theta_hat - s
    anchor = None
    for theta_a, u_a, v_a in reversed(samples):
        if theta_a <= start:
            anchor = (theta_a, u_a, v_a)
            break
    if anchor is None:
        return []
    theta_a, u, v = anchor
    f1v = _forcing(c, q, u)
    approach = start - theta_a
    if approach > 0.0:
        half = approach / 2.0
        for _ in range(2):
            u, v, f1v, _, _ = _dopri_step(c, q, u, v, half, f1v)
    out = [(start, u, v)]
    for i in (0, 1):
        u, v, f1v, _, _ = _dopri_step(c, q, u, v, s, f1v)
        out.append((theta_hat + i * s, u, v))
    return out


def _check_sampling(thetas: list[float]) -> None:
    """Raise DomainError unless the angles strictly increase, number at least
    two and never leave a gap of pi/8."""
    if len(thetas) < 2:
        raise DomainError(_NOT_INCREASING)
    for a, b in zip(thetas, thetas[1:]):
        gap = b - a
        if not gap > 0.0:
            raise DomainError(_NOT_INCREASING)
        if not gap < _MAX_GAP:
            raise DomainError(_TOO_SPARSE)


def _checked_samples(rows):
    """Split theta-ordered (theta, u, du) rows into three lists.

    A row within 1e-12 rad of the one kept before it (a stencil point on an
    accepted step) is dropped. The kept angles must pass _check_sampling.
    """
    thetas: list[float] = []
    us: list[float] = []
    vs: list[float] = []
    for t, uu, vv in rows:
        if thetas and -1e-12 < t - thetas[-1] < 1e-12:
            continue
        thetas.append(t)
        us.append(uu)
        vs.append(vv)
    _check_sampling(thetas)
    return thetas, us, vs


def _integrate(model: QuantizedModel, u0: float, du0: float, theta_max: float,
               tol: float):
    """integrate's stepping on plain floats, with no numpy.

    Returns (thetas, us, dus, n_accepted, n_rejected), the samples already
    checked as a Trajectory would check them.
    """
    if not (math.isfinite(theta_max) and theta_max > 0):
        raise DomainError(f"theta_max must be positive, got {theta_max!r}")
    if not TOL_MIN <= tol <= TOL_MAX:
        raise DomainError(f"tolerance must lie in [{TOL_MIN}, {TOL_MAX}], got {tol!r}")
    if not (math.isfinite(u0) and u0 > 0):
        raise DomainError(f"initial inverse radius must be positive, got {u0!r}")
    if not math.isfinite(du0):
        raise DomainError(f"initial slope must be finite, got {du0!r}")

    c, q = _binet_constants(model)
    sqrt = math.sqrt
    atol = tol * u0

    samples: list[tuple[float, float, float]] = [(0.0, u0, du0)]
    extras: list[tuple[float, float, float]] = []
    theta, u, v = 0.0, u0, du0
    f1v = _forcing(c, q, u0)
    h = min(_INITIAL_STEP, _MAX_STEP, theta_max / 2.0)
    n_accepted = 0
    n_rejected = 0

    theta_end = theta_max - 1e-12 * max(1.0, theta_max)
    # min and max of two floats are written as the conditional expressions
    # they evaluate (min(a, b) is `b if b < a else a`), sparing about ten
    # builtin calls per step.
    while theta < theta_end:
        if h < 1e-13 * (theta if theta > 1.0 else 1.0):
            raise StepFailureError(f"step size underflow at theta = {theta!r}")
        rest = theta_max - theta
        if rest < h:
            h = rest

        u_new, v_new, f_new, err_u, err_v = _dopri_step(c, q, u, v, h, f1v)
        # u and u_new passed the forcing check, so both are positive.
        scale_u = atol + tol * (u_new if u_new > u else u)
        av, av_new = abs(v), abs(v_new)
        scale_v = atol + tol * (av_new if av_new > av else av)
        norm = sqrt(0.5 * ((err_u / scale_u) ** 2 + (err_v / scale_v) ** 2))
        if norm > 1.0:
            n_rejected += 1
            h *= max(_MIN_FACTOR, min(1.0, _SAFETY * norm ** -0.2))
            continue
        n_accepted += 1
        theta_new = theta + h
        if v > 0.0 >= v_new:
            # du crossed + to -: a maximum of u (perihelion) lies inside
            # this step. Chord zero is within O(h^3) of it, far closer than
            # the stencil half-width, so the stencil brackets the extremum.
            theta_hat = theta + h * (v / (v - v_new))
            if (theta_hat - 2.0 * _STENCIL_HALF_WIDTH > 0.0
                    and theta_hat + 2.0 * _STENCIL_HALF_WIDTH < theta_max):
                extras.extend(_refine_stencil(c, q, samples, theta_hat))
        samples.append((theta_new, u_new, v_new))
        theta, u, v, f1v = theta_new, u_new, v_new, f_new
        if norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * norm ** -0.2
            factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
            factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
        h *= factor
        if _MAX_STEP < h:
            h = _MAX_STEP

    merged = samples + extras
    merged.sort(key=lambda row: row[0])
    return (*_checked_samples(merged), n_accepted, n_rejected)


def integrate(model: QuantizedModel, u0: float, du0: float, theta_max: float,
              tol: float = 1e-12) -> Trajectory:
    """Adaptively integrate the exact orbit equation over [0, theta_max].

    Local error per step is held below tol relative to the orbit scale u0.
    Deterministic for fixed inputs. An orbit falling into the quantum raises
    SingularityError if a stage evaluates the force at or inside the quantum,
    or StepFailureError if the step size underflows first as the force
    diverges; measured_precession and `qgrav orbit` refuse such a start
    beforehand with ModelBreakdownError.
    """
    import numpy as np
    thetas, us, vs, n_accepted, n_rejected = _integrate(model, u0, du0, theta_max, tol)
    return Trajectory(theta=np.array(thetas), u=np.array(us), du=np.array(vs),
                      tol=tol, n_accepted=n_accepted, n_rejected=n_rejected)


def _quadratic_vertex(t0, t1, t2, u0, u1, u2):
    """Vertex abscissa of the parabola through three points, or None if the
    points do not describe a maximum with an interior vertex."""
    d1 = (u1 - u0) / (t1 - t0)
    d2 = (u2 - u1) / (t2 - t1)
    curv = (d2 - d1) / (t2 - t0)
    if not curv < 0.0:
        return None
    vertex = 0.5 * (t0 + t1) - d1 / (2.0 * curv)
    if not t0 <= vertex <= t2:
        return None
    return vertex


def _perihelion_angles(theta, u, du):
    """detect_perihelia on plain float sequences: (angles, advances) as lists.

    One pass finds the + to - crossings of du; each is refined by a
    quadratic fit of u over the three samples nearest the crossing that lie
    at least half the stencil spacing apart. Raises InsufficientSpanError
    below two refined passages.
    """
    n = len(theta)
    angles: list[float] = []
    for i in range(n - 1):
        if not du[i] > 0.0 >= du[i + 1]:
            continue
        frac = du[i] / (du[i] - du[i + 1])
        theta_c = theta[i] + frac * (theta[i + 1] - theta[i])
        lo = max(0, i - 1)
        hi = min(n, i + 3)
        # Nearest first, skipping a sample that nearly coincides with one
        # already taken: an accepted step can land next to a stencil point,
        # and a parabola through two almost equal abscissae puts its vertex
        # off the bracket, losing the passage.
        candidates: list[int] = []
        for j in sorted(range(lo, hi), key=lambda j: abs(theta[j] - theta_c)):
            if all(abs(theta[j] - theta[k]) >= 0.5 * _STENCIL_HALF_WIDTH for k in candidates):
                candidates.append(j)
        if len(candidates) < 3:
            continue
        j0, j1, j2 = sorted(candidates[:3])
        vertex = _quadratic_vertex(theta[j0], theta[j1], theta[j2],
                                   u[j0], u[j1], u[j2])
        if vertex is not None:
            angles.append(vertex)
    if len(angles) < 2:
        raise InsufficientSpanError(
            f"trajectory spans {len(angles)} perihelion passage(s); need at least 2"
        )
    two_pi = 2.0 * math.pi
    return angles, [(b - a) - two_pi for a, b in zip(angles, angles[1:])]


def detect_perihelia(traj: Trajectory) -> PerihelionSeries:
    """Locate perihelion passages and the per-revolution advances between them.

    Passages are + to - crossings of du, each refined by a quadratic fit of
    u over the three samples nearest the crossing that lie at least half the
    stencil spacing apart. Fewer than two refined passages cannot define an
    advance and raise InsufficientSpanError.
    """
    import numpy as np
    angles, advances = _perihelion_angles(traj.theta.tolist(), traj.u.tolist(),
                                          traj.du.tolist())
    return PerihelionSeries(angles=np.array(angles), advances=np.array(advances))


def _perihelion_start(el: PlanetElements, delta_arcsec: float, rule: QuantumRule,
                      n_periods: int):
    """(orbit, model, u0, theta_max) to integrate n_periods radial periods of
    the exact orbit, starting at its perihelion, plus half a radian so the
    last perihelion is bracketed.

    Raises ModelBreakdownError when that orbit is unbounded, through
    orbit_params.
    """
    orbit = derive_orbit(el)
    quantum = quantum_from_error(delta_arcsec, orbit, rule)
    _, freq_ratio = orbit_params(quantum, orbit)
    model = QuantizedModel(quantum=quantum, mu=orbit.mu, h=orbit.h)
    u0 = 1.0 / orbit.r_p
    theta_max = n_periods * (2.0 * math.pi / freq_ratio) + 0.5
    return orbit, model, u0, theta_max


def measured_precession(el: PlanetElements, delta_arcsec: float,
                        rule: QuantumRule = QuantumRule.PERIHELION,
                        n_orbits: int = 50, tol: float = 1e-12) -> PrecessionResult:
    """Measure the perihelion advance by exact integration from a perihelion start.

    Integrates n_orbits + 1 radial periods so that n_orbits inter-perihelion
    gaps are observable, averages the refined advances, and extrapolates to a
    century exactly as the analytic chain does. Runs on plain floats, with no
    numpy; the mean is math.fsum over the advances, divided by their count.
    Raises ModelBreakdownError when the exact orbit is unbounded.
    """
    if n_orbits < 2:
        raise DomainError(f"need at least 2 orbits to average advances, got {n_orbits!r}")
    orbit, model, u0, theta_max = _perihelion_start(el, delta_arcsec, rule, n_orbits + 1)
    theta, u, du, _, _ = _integrate(model, u0, 0.0, theta_max, tol)
    _, advances = _perihelion_angles(theta, u, du)
    per_orbit = math.fsum(advances) / len(advances)
    per_century = per_orbit * orbit.orbits_per_century * ARCSEC_PER_RAD
    return PrecessionResult(per_orbit_rad=per_orbit,
                            per_century_arcsec=per_century,
                            provenance=Provenance.NUMERIC)

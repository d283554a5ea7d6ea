"""Exact orbit integration in the angle domain and numerical precession measurement.

The orbit equation for the quantized force, without any linearization, is

    d2u/dtheta2 = -u + (mu/h^2) / (1 - q u),      u = 1/r,

integrated here as a first-order system in theta with an embedded
Dormand-Prince 5(4) pair. theta (not time) is the integration variable:
precession is an angle-domain observable and the closed-form solution is
directly comparable, with no Kepler solve. One step driver, _adaptive_steps,
holds the step control of both paths below; each stepper returns its norm.

measured_precession keeps no sample and does not follow u itself. Its
stepper, _drift_step, integrates the slow drift of the orbit's apse line:
the deviation from the circular fixed point is written
w = a cos(omega theta) + b sin(omega theta), with omega the frequency of
small oscillations, and (a, b) are stepped under the exact force (Encke's
method with variation of parameters; Battin, An Introduction to the
Mathematics and Methods of Astrodynamics, ch. 10). The drift rates are
O(epsilon^2 e) of the amplitude, so on planet orbits every step sits at
the drift's own cap: 8 per radial period where kappa = c q/d^2 of
forces._drift_frame is below 1e-4, 16 above. tol is relative to the
oscillation amplitude |u0 - u_star|, the quantity a perihelion angle
depends on, so it holds on near-circular orbits too. A passage is where
omega theta - atan2(b, a) reaches a multiple of 2 pi. The steps count the
passages, place only the first and the last by Newton in the step that
crosses each, read the advance off the turn of atan2(b, a) between them
and stop at the last, with no span of theta: the orbits admitted are periodic.

integrate stores the samples for the `qgrav orbit` export. Its stepper,
_dopri_step, follows (u, du/dtheta) with local error below tol relative to
u0. Whenever an accepted step crosses a perihelion (du from + to -), it
re-integrates a short fixed-step segment and inserts three extra samples
1e-3 rad apart around the zero of the chord of du over that step. The
stencil and the chord zero serve the export's bytes alone; the
measurement uses neither.

integrate runs on plain floats and stores each sample once, in array('d')
columns of theta, u and du; one pass merges the stencils into the theta and
u columns it returns with the two step counts, so the whole module needs
only the standard library.

_perihelion_start forms q, c = mu/h^2 and u0 = 1/r_p and refuses, by the
two checks in forces, each naming the planet, an orbit from the perihelion
that falls into the quantum or escapes to u = 0, so neither path integrates
an orbit that never closes; only _export puts them in a QuantizedModel.
forces holds the well's circular point and its frame; this module steps.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from collections.abc import Iterable
from functools import partial
from itertools import chain, islice

from .bodies import _FLOAT_MAX, ARCSEC_PER_RAD, PlanetElements, derive_orbit
from .errors import DomainError, QgravError, SingularityError, StepFailureError
from .forces import (PrecessionResult, Provenance, QuantizedModel, _check_escape, _drift_frame,
                     _epsilon)
from .precession import QuantumRule, _advance_from_eps, quantum_from_error
from .record import Record

# Dormand-Prince 5(4) tableau. The orbit equation is autonomous in theta;
# the stage abscissae serve only _drift_step, whose rates turn with theta.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
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
# integrate's cap. The export's samples, and so its bytes, depend on it.
_MAX_STEP = math.pi / 16
# The drift's cap: 16 steps per radial period. From pi/7 up the controller
# starts to act on planet orbits at tol 1e-10, and their error grows to tol.
# Where kappa = c q/d^2 of forces._drift_frame is below _COARSE_DRIFT_KAPPA
# the cap doubles to pi/4, 8 steps per period, and half the steps gather
# half the rounding. Against the 60-digit advance, over the 386 cases with
# delta > 0 of the bench's numeric inputs (seeds 1-7, 13, 29, 41), pi/4
# lands as close as pi/8 or closer on every case up to kappa = 1.75e-4;
# from 2.06e-4 up it lands further off on 43 of 57 cases, by up to 200x.
# 1e-4 lies a factor 2 below the first loss. At kappa = 1e-4 the two caps'
# advances differ by 2.4e-14 relative at e = 0.2 and 1.2e-13 at e = 0.99,
# below tol. pi/2 is worse even at small kappa: 5.2e-20 rad/orbit off at
# Mercury, 0.0398", where pi/4 and pi/8 are 1.1e-22 off.
_MAX_DRIFT_STEP = math.pi / 8
_COARSE_DRIFT_KAPPA = 1e-4
_INITIAL_STEP = math.pi / 256
_STENCIL_HALF_WIDTH = 1e-3        # rad; extremum stencil spacing

TOL_MIN = 1e-14
TOL_MAX = 1e-6

_NOT_INCREASING = "trajectory samples must be strictly increasing in theta"


class Trajectory(Record):
    """The samples `qgrav orbit` exports plus the integrator's step counts.

    theta and u are copied into array('d') fields of one length. The angles
    must strictly increase and number at least two; anything else raises
    DomainError.
    """

    _fields = ("theta", "u", "n_accepted", "n_rejected")

    def __init__(self, theta: Iterable[float], u: Iterable[float],
                 n_accepted: int, n_rejected: int) -> None:
        self.__dict__.update(theta=array("d", theta), u=array("d", u),
                             n_accepted=n_accepted, n_rejected=n_rejected)
        self.__post_init__()

    def __post_init__(self) -> None:
        thetas = self.theta
        if not len(thetas) == len(self.u):
            raise DomainError(
                f"trajectory fields differ in length: theta {len(thetas)}, u {len(self.u)}"
            )
        if len(thetas) < 2:
            raise DomainError(_NOT_INCREASING)
        for a, b in zip(thetas, thetas[1:]):
            if not b > a:
                raise DomainError(_NOT_INCREASING)

    def __len__(self) -> int:
        return len(self.theta)


def _forcing_error(u: float, q: float) -> QgravError:
    """The error for a forcing evaluation at u, where u > 0 or q u < 1 fails."""
    if not u > 0:
        return DomainError(f"inverse radius must be positive, got {u!r}: the orbit "
                           f"escapes, and is integrated only up to its asymptote u = 0")
    return SingularityError(1.0 / u, q)


def _forcing(c: float, q: float, u: float) -> float:
    """The forcing -u + c / (1 - q u) of the exact orbit equation, with no
    expansion in q: SingularityError where q u >= 1, DomainError where u is
    not positive (_forcing_error)."""
    qu = q * u
    if qu >= 1.0 or not u > 0:
        raise _forcing_error(u, q)
    return -u + c / (1.0 - qu)


def _dopri_step(c, q, tol, atol, theta, state, h):
    """One Dormand-Prince step of size h from state = (u, v, f) for the
    forcing -u + c / (1 - q u); f is the forcing at u (FSAL reuse).

    The forcing and its checks (_forcing) are written out at each stage.
    Returns ((u_new, v_new, f_new), norm), norm the RMS of the error
    estimate over the scale atol + tol max(|y|, |y_new|) of each component.
    """
    u, v, k1v = state
    k1u = v

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
    # u and u_new passed the forcing check, so both are positive.
    scale_u = atol + tol * (u_new if u_new > u else u)
    av, av_new = abs(v), abs(v_new)
    scale_v = atol + tol * (av_new if av_new > av else av)
    norm = math.sqrt(0.5 * ((err_u / scale_u) ** 2 + (err_v / scale_v) ** 2))
    return (u_new, v_new, f_new), norm


def _refine_stencil(step, c, q, thetas, us, dus, theta_hat):
    """Re-integrate with step from the last sample at or before theta_hat - s
    (thetas[0] = 0 is below it) and return the (theta, u) of three states at
    theta_hat -/0/+ s, each propagated with fixed sub-steps no larger than
    the accepted ones (local error at machine level over s)."""
    s = _STENCIL_HALF_WIDTH
    start = theta_hat - s
    k = bisect_right(thetas, start) - 1
    theta_a, u = thetas[k], us[k]
    state = (u, dus[k], _forcing(c, q, u))
    approach = start - theta_a
    if approach > 0.0:
        half = approach / 2.0
        for _ in range(2):
            state, _ = step(theta_a, state, half)
    out = [(start, state[0])]
    for i in (0, 1):
        state, _ = step(start, state, s)
        out.append((theta_hat + i * s, state[0]))
    return out


def _merge_samples(thetas, us, rows):
    """The theta and u columns of the samples (thetas, us) and the (theta, u)
    rows, both in theta order, merged in one pass.

    A sample comes before a row at the same theta, as a stable sort of the
    samples followed by the rows puts it. A sample or row within 1e-12 rad
    of the one kept before it (a stencil point on an accepted step) is dropped.
    """
    samples = zip(thetas, us)
    pieces, i = [], 0
    for row in rows:
        j = bisect_right(thetas, row[0])
        pieces += (islice(samples, j - i), [row])
        i = j
    theta_out, u_out = array("d"), array("d")
    last = -math.inf
    for t, uu in chain(*pieces, samples):
        if not -1e-12 < t - last < 1e-12:
            last = t
            theta_out.append(t)
            u_out.append(uu)
    return theta_out, u_out


def _check_tol(tol: float) -> None:
    if not TOL_MIN <= tol <= TOL_MAX:
        raise DomainError(f"tolerance must lie in [{TOL_MIN}, {TOL_MAX}], got {tol!r}")


def _adaptive_steps(step, state, theta_max, max_step):
    """Step state adaptively over [0, theta_max], yielding (theta, h, state,
    n_rejected) after each accepted step of size h that ends at theta;
    n_rejected counts the rejections so far.

    step(theta, state, h) returns (new_state, norm), norm the step's error
    estimate relative to its tolerance. A step is accepted where norm <= 1,
    and the next size follows proportional control on norm, capped at
    max_step (Hairer, Norsett & Wanner, Solving ODEs I, II.4).
    StepFailureError if the step size underflows.
    """
    theta = 0.0
    h = min(_INITIAL_STEP, max_step, theta_max / 2.0)
    n_rejected = 0

    theta_end = theta_max - 1e-12 * max(1.0, theta_max)
    # min and max of two floats are written as the conditional expressions
    # they evaluate (min(a, b) is `b if b < a else a`), sparing builtin calls.
    while theta < theta_end:
        if h < 1e-13 * (theta if theta > 1.0 else 1.0):
            raise StepFailureError(f"step size underflow at theta = {theta!r}")
        rest = theta_max - theta
        if rest < h:
            h = rest

        new_state, norm = step(theta, state, h)
        factor = _SAFETY * norm ** -0.2 if norm else _MAX_FACTOR
        factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
        if norm > 1.0:
            n_rejected += 1
            h *= factor if factor < 1.0 else 1.0
            continue
        theta += h
        yield theta, h, new_state, n_rejected
        state = new_state
        h *= factor if factor < _MAX_FACTOR else _MAX_FACTOR
        if max_step < h:
            h = max_step


def integrate(model: QuantizedModel, u0: float, du0: float, theta_max: float,
              tol: float = 1e-12) -> Trajectory:
    """Adaptively integrate the exact orbit equation over [0, theta_max].

    _adaptive_steps drives _dopri_step, holding local error per step below
    tol relative to the orbit scale u0. Deterministic for fixed inputs.
    DomainError unless theta_max > 1e-12 rad, tol in [TOL_MIN, TOL_MAX],
    u0 > 0 and du0 lie in the float range (nan, inf and huge ints fail). An
    orbit falling into the quantum raises SingularityError if a stage
    evaluates the force at or inside the quantum, or StepFailureError if the
    step size underflows first as the force diverges; measured_precession
    and `qgrav orbit` refuse such a start beforehand with
    ModelBreakdownError. An escaping start is integrated up to its
    asymptote, where u reaches 0, and a theta_max past that raises
    DomainError there; the two refuse it beforehand too.
    """
    if not 0 < theta_max <= _FLOAT_MAX:
        raise DomainError(f"theta_max must be positive, got {theta_max!r}")
    if not theta_max > 1e-12:
        raise DomainError(f"theta_max must exceed 1e-12 rad, got {theta_max!r}")
    _check_tol(tol)
    if not 0 < u0 <= _FLOAT_MAX:
        raise DomainError(f"initial inverse radius must be positive, got {u0!r}")
    if not -_FLOAT_MAX <= du0 <= _FLOAT_MAX:
        raise DomainError(f"initial slope must be finite, got {du0!r}")

    c, q = model.mu / (model.h * model.h), model.quantum
    step = partial(_dopri_step, c, q, tol, tol * u0)
    thetas, us, dus = array("d", [0.0]), array("d", [u0]), array("d", [du0])
    # stencil rows, in theta order: perihelia lie periods, not stencils, apart
    extras: list[tuple[float, float]] = []
    n_accepted = n_rejected = 0
    for theta_new, h, (u_new, v_new, _), n_rejected in _adaptive_steps(
            step, (u0, du0, _forcing(c, q, u0)), theta_max, _MAX_STEP):
        n_accepted += 1
        theta, v = thetas[-1], dus[-1]
        if v > 0.0 >= v_new:
            # du crossed + to -: a maximum of u (perihelion) lies inside
            # this step. Chord zero is within O(h^3) of it, far closer than
            # the stencil half-width, so the stencil brackets the extremum.
            theta_hat = theta + h * (v / (v - v_new))
            if (theta_hat - 2.0 * _STENCIL_HALF_WIDTH > 0.0
                    and theta_hat + 2.0 * _STENCIL_HALF_WIDTH < theta_max):
                extras += _refine_stencil(step, c, q, thetas, us, dus, theta_hat)
        thetas.append(theta_new)
        us.append(u_new)
        dus.append(v_new)

    del dus  # the merge reads theta and u alone
    theta, u = _merge_samples(thetas, us, extras)
    del thetas, us  # the columns go before Trajectory copies the merged ones
    return Trajectory(theta=theta, u=u, n_accepted=n_accepted, n_rejected=n_rejected)


def _perihelion_start(el: PlanetElements, delta_arcsec: float, rule: QuantumRule):
    """(q, c, u0): the quantum of delta_arcsec, c = mu/h^2 and 1/r_p, which
    fix el's exact orbit u'' = -u + c/(1 - q u) from rest at its perihelion.

    Raises ModelBreakdownError when that orbit falls into the quantum
    (forces._epsilon at r_p) and DomainError when it escapes
    (forces._check_escape), each naming the planet.
    """
    orbit = derive_orbit(el)
    q = quantum_from_error(delta_arcsec, orbit, rule)
    _epsilon(q, orbit.mu, orbit.h, orbit.r_p, el.name)
    c = orbit.mu / (orbit.h * orbit.h)
    u0 = 1.0 / orbit.r_p
    _check_escape(el.name, c, q, u0)
    return q, c, u0


def _export(el: PlanetElements, delta_arcsec: float, rule: QuantumRule, n_orbits: int,
            tol: float) -> Trajectory:
    """The `qgrav orbit` export from _perihelion_start: n_orbits first-order
    radial periods 2 pi/x, x = sqrt(1 - epsilon), plus 0.5 rad to bracket the
    last perihelion (fewer exact periods at large epsilon). Builds the one
    QuantizedModel, which integrate takes; the rule passed at r_p already."""
    q, _, u0 = _perihelion_start(el, delta_arcsec, rule)
    orbit = derive_orbit(el)
    model = QuantizedModel(quantum=q, mu=orbit.mu, h=orbit.h)
    theta_max = n_orbits * (2.0 * math.pi / math.sqrt(1.0 - model.epsilon)) + 0.5
    return integrate(model, u0, 0.0, theta_max, tol)


def _drift_step(omega, u_star, d, q, g, atol, theta, state, h):
    """One Dormand-Prince step of size h of the apse-line drift from
    state = (a, b, ka, kb) at theta; (ka, kb) are the drift rates there
    (FSAL reuse).

    The deviation from the circular fixed point is w = u - u_star =
    a cos(omega theta) + b sin(omega theta), and the drift rates are
    (-r sin, r cos)(omega theta) with r = g w^2 / (d - q w). Each stage
    checks u_star + w > 0 and d - q w > 0 (that is, q u < 1), raising as
    _forcing does. Returns ((a_new, b_new, ka_new, kb_new), norm), norm the
    RMS of the error estimate over the one absolute scale atol.
    """
    cos, sin = math.cos, math.sin
    a, b, ka1, kb1 = state

    a2 = a + h * (_A21 * ka1)
    b2 = b + h * (_A21 * kb1)
    phase = omega * (theta + _C2 * h)
    co, si = cos(phase), sin(phase)
    w = a2 * co + b2 * si
    dw = d - q * w
    if not (u_star + w > 0.0 and dw > 0.0):
        raise _forcing_error(u_star + w, q)
    r = g * w * w / dw
    ka2, kb2 = -r * si, r * co

    a3 = a + h * (_A31 * ka1 + _A32 * ka2)
    b3 = b + h * (_A31 * kb1 + _A32 * kb2)
    phase = omega * (theta + _C3 * h)
    co, si = cos(phase), sin(phase)
    w = a3 * co + b3 * si
    dw = d - q * w
    if not (u_star + w > 0.0 and dw > 0.0):
        raise _forcing_error(u_star + w, q)
    r = g * w * w / dw
    ka3, kb3 = -r * si, r * co

    a4 = a + h * (_A41 * ka1 + _A42 * ka2 + _A43 * ka3)
    b4 = b + h * (_A41 * kb1 + _A42 * kb2 + _A43 * kb3)
    phase = omega * (theta + _C4 * h)
    co, si = cos(phase), sin(phase)
    w = a4 * co + b4 * si
    dw = d - q * w
    if not (u_star + w > 0.0 and dw > 0.0):
        raise _forcing_error(u_star + w, q)
    r = g * w * w / dw
    ka4, kb4 = -r * si, r * co

    a5 = a + h * (_A51 * ka1 + _A52 * ka2 + _A53 * ka3 + _A54 * ka4)
    b5 = b + h * (_A51 * kb1 + _A52 * kb2 + _A53 * kb3 + _A54 * kb4)
    phase = omega * (theta + _C5 * h)
    co, si = cos(phase), sin(phase)
    w = a5 * co + b5 * si
    dw = d - q * w
    if not (u_star + w > 0.0 and dw > 0.0):
        raise _forcing_error(u_star + w, q)
    r = g * w * w / dw
    ka5, kb5 = -r * si, r * co

    a6 = a + h * (_A61 * ka1 + _A62 * ka2 + _A63 * ka3 + _A64 * ka4 + _A65 * ka5)
    b6 = b + h * (_A61 * kb1 + _A62 * kb2 + _A63 * kb3 + _A64 * kb4 + _A65 * kb5)
    phase = omega * (theta + h)
    co6, si6 = cos(phase), sin(phase)
    w = a6 * co6 + b6 * si6
    dw = d - q * w
    if not (u_star + w > 0.0 and dw > 0.0):
        raise _forcing_error(u_star + w, q)
    r = g * w * w / dw
    ka6, kb6 = -r * si6, r * co6

    a_new = a + h * (_B1 * ka1 + _B3 * ka3 + _B4 * ka4 + _B5 * ka5 + _B6 * ka6)
    b_new = b + h * (_B1 * kb1 + _B3 * kb3 + _B4 * kb4 + _B5 * kb5 + _B6 * kb6)
    w = a_new * co6 + b_new * si6
    dw = d - q * w
    if not (u_star + w > 0.0 and dw > 0.0):
        raise _forcing_error(u_star + w, q)
    r = g * w * w / dw
    ka7, kb7 = -r * si6, r * co6

    err_a = h * (_E1 * ka1 + _E3 * ka3 + _E4 * ka4 + _E5 * ka5 + _E6 * ka6 + _E7 * ka7)
    err_b = h * (_E1 * kb1 + _E3 * kb3 + _E4 * kb4 + _E5 * kb5 + _E6 * kb6 + _E7 * kb7)
    return (a_new, b_new, ka7, kb7), math.sqrt(0.5 * (err_a * err_a + err_b * err_b)) / atol


def _place_passage(step, omega, theta, state, phase_gap):
    """(h, turn): the theta increment h from an accepted step's end to the
    passage where G = omega theta - phi has fallen by phase_gap,
    phi = atan2(b, a), and the turn of phi over h.

    Newton on G, each iterate one uncontrolled step of the bound _drift_step
    from the end state (a, b, ka, kb) at theta, and the exact slope
    G' = omega - (a kb - b ka) / (a^2 + b^2), since phi turns with the
    drift (a slope of omega alone converges linearly, at a ratio of 0.46 at
    epsilon = 0.237). Stops when a correction is not below half the one
    before, as at the rounding floor; the turn is that of the last iterate.
    """
    a, b, ka, kb = state
    atan2 = math.atan2
    h, last, turn = 0.0, math.inf, 0.0
    gap, slope = phase_gap, omega - (a * kb - b * ka) / (a * a + b * b)
    while True:
        dh = -gap / slope
        if not abs(dh) < 0.5 * last:
            return h, turn
        last = abs(dh)
        h += dh
        (a_h, b_h, ka_h, kb_h), _ = step(theta, state, h)
        turn = atan2(a * b_h - b * a_h, a * a_h + b * b_h)
        gap = phase_gap + omega * h - turn
        slope = omega - (a_h * kb_h - b_h * ka_h) / (a_h * a_h + b_h * b_h)


def _perihelion_passages(el: PlanetElements, delta_arcsec: float, rule: QuantumRule,
                         n_orbits: int, tol: float) -> tuple[tuple[float, float], float]:
    """((theta_0, theta_n), per_orbit): the angles of perihelion passages 0
    and n = n_orbits of the exact orbit started at el's perihelion distance
    with du/dtheta = 0, and its mean advance per radial period in rad.

    The orbit is followed in the frame that turns with it (Encke's method
    with variation of parameters) about the circular point u_star of
    forces._drift_frame, where w = u - u_star obeys w'' = -omega^2 w + R.
    Writing w = a cos(omega theta) + b sin(omega theta) with the drift
    a' = -(R/omega) sin(omega theta), b' = (R/omega) cos(omega theta) of the
    apse line, the step driver _adaptive_steps moves (a, b) from
    (u0 - u_star, 0) with _drift_step, its norm on the scale tol |u0 - u_star|.
    The drift rates are O(epsilon^2 e) of the amplitude, so on planet orbits
    every step sits at the cap: 8 per radial period (2 _MAX_DRIFT_STEP)
    where kappa < _COARSE_DRIFT_KAPPA = 1e-4, and 16 (_MAX_DRIFT_STEP) above.

    Passage k is where G = omega theta - phi reaches 2 pi k, phi = atan2(b, a)
    followed continuously; passage 0 is theta = 0 unless u0 < u_star, an
    aphelion start. The steps count passages, and _place_passage places only
    0 and n, in the step crossing each; it never feeds back into the steps,
    so theta_n at n_orbits = k is passage k of any longer call. No sample is kept.
    As theta_n - theta_0 = (2 pi n + phi_n - phi_0) / omega, the advance is
    read off the apse line, 2 pi (1/omega - 1) + (phi_n - phi_0) / (n omega)
    with the first term from _advance_from_eps(kappa): each term is small
    and keeps its relative precision, where the mean of theta_n - theta_0
    (about 2 pi n) keeps only the bits of the advance that theta_n holds.
    The steps stop at passage n, over no span of theta: _perihelion_start
    admits only an orbit that neither falls into the quantum nor escapes,
    so the orbit is periodic. Near the separatrix its exact period outgrows
    any multiple of the first-order one, but only like the logarithm of the
    distance to it, so n_orbits bounds the work.
    DomainError for a tol outside [TOL_MIN, TOL_MAX] or a circular start,
    which has no perihelion; StepFailureError if the step size underflows.
    """
    q, c, u0 = _perihelion_start(el, delta_arcsec, rule)
    _check_tol(tol)
    u_star, d, kappa, omega = _drift_frame(c, q)
    g = kappa * q / omega
    a, b = u0 - u_star, 0.0
    if a == 0.0:
        raise DomainError(f"no perihelion: the start u = {u0!r} is the circular orbit")
    dw = d - q * a
    step = partial(_drift_step, omega, u_star, d, q, g, tol * abs(a))

    atan2 = math.atan2
    two_pi = 2.0 * math.pi
    phi = atan2(b, a)
    # k counts the passages crossed; theta_0 and phi_0 are set once passage 0 is.
    k, theta_0, phi_0 = (1, 0.0, phi) if a > 0.0 else (0, None, None)
    max_step = 2.0 * _MAX_DRIFT_STEP if kappa < _COARSE_DRIFT_KAPPA else _MAX_DRIFT_STEP
    # No theta_max: _FLOAT_MAX lies beyond any theta the steps can reach.
    for theta, _, state, _ in _adaptive_steps(step, (a, b, 0.0, g * a * a / dw), _FLOAT_MAX,
                                              max_step):
        a_new, b_new, _, _ = state
        # phi follows the turn of (a, b) over the step, so it never wraps.
        phi += atan2(a * b_new - b * a_new, a * a_new + b * b_new)
        a, b = a_new, b_new
        phase_gap = omega * theta - phi - two_pi * k
        if phase_gap >= 0.0:
            if k == 0 or k == n_orbits:
                h, turn = _place_passage(step, omega, theta, state, phase_gap)
                if k:
                    drift = (phi + turn - phi_0) / (n_orbits * omega)
                    return (theta_0, theta + h), _advance_from_eps(kappa) + drift
                theta_0, phi_0 = theta + h, phi + turn
            k += 1


def measured_precession(el: PlanetElements, delta_arcsec: float,
                        rule: QuantumRule = QuantumRule.PERIHELION,
                        n_orbits: int = 50, tol: float = 1e-12) -> PrecessionResult:
    """Measure the perihelion advance by exact integration from a perihelion start.

    Integrates the drift of the apse line under the exact force across
    n_orbits + 1 perihelion passages, placing only the first and the last,
    and reads the mean advance off the turn of the apse line between them
    (see _perihelion_passages), extrapolated to a century as the analytic
    chain does. tol bounds the local error per step relative to the
    oscillation amplitude |u0 - u_star|, so it bounds the angle error on any
    eccentricity away from the breakdown boundary; near it the advance is
    ill-conditioned and tol does not bound it (README). Raises DomainError
    unless n_orbits is an integer of at least 2 (by operator.index: NumPy
    integers pass, True is 1) and tol lies in [TOL_MIN, TOL_MAX], and for a
    circular start. Naming the planet, it raises DomainError when the exact
    orbit escapes from its perihelion and ModelBreakdownError when it falls
    into the quantum (see _perihelion_start). Every other orbit is periodic.
    """
    try:
        n = operator.index(n_orbits)
    except TypeError:
        n = 0
    if n < 2:
        raise DomainError(f"need a whole number of at least 2 orbits to average "
                          f"advances, got {n_orbits!r}")
    _, per_orbit = _perihelion_passages(el, delta_arcsec, rule, n, tol)
    per_century = per_orbit * derive_orbit(el).orbits_per_century * ARCSEC_PER_RAD
    return PrecessionResult(per_orbit_rad=per_orbit,
                            per_century_arcsec=per_century,
                            provenance=Provenance.NUMERIC)

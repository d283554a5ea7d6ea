"""Force laws, the orbit model, its breakdown rule, and the precession result.

The corrected attraction between two masses a distance L apart, when length
is only resolvable in units of a minimal quantum q, is

    F = G m1 m2 / (L (L - q))

which is Newton's law with one factor of L shifted by the quantum. The
statistical origin is a state-counting argument: a system whose separation
is L quanta has states of weight 1/L, and the interaction strength follows
the weight increment 1/(L-1) - 1/L = 1/(L(L-1)) gained by contracting one
quantum.

epsilon = q mu/h^2 and the breakdown rule (both in _epsilon), the exact
orbit's well (its escape test and the frame about its circular point) and
PrecessionResult live here, below precession. With p = a(1 - e^2) and
beta = h^2/(mu p), U = p u obeys U'' + U = (1/beta)/(1 - (q/p) U) from
U_p = 1 + e: three numbers, epsilon, e and beta, decide every advance.
"""

from __future__ import annotations

import enum
import math

from .bodies import _FLOAT_MAX, ARCSEC_PER_RAD, C_LIGHT, PlanetElements, derive_orbit
from .errors import DomainError, ModelBreakdownError, SingularityError
from .record import Record

# CODATA Newton constant, m^3 kg^-1 s^-2. Kept independent of the quantum:
# every orbital computation uses GM directly, so G never enters the pipeline.
NEWTON_G = 6.6743e-11


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


# _epsilon's rule passes inside eps < _EPS_BOX, x_p < _X_BOX (see its
# docstring). The two row paths, calibrate.sweep_delta and invert_delta,
# test this box inline and ask planet_precession only outside it.
_EPS_BOX = 0.01
_X_BOX = 0.9


def _epsilon(quantum: float, mu: float, h: float, r_p: float | None = None,
             name: str | None = None) -> float:
    """eps = quantum mu/h^2 once the breakdown rule passes, else ModelBreakdownError.

    The rule: the exact orbit must be bounded. x_p = q/r_p places the
    orbit's perihelion. With the first integral u'^2/2 + W(u) = W(u_p),
    where W(u) = u^2/2 + (c/q) log1p(-q u) and c = mu/h^2, the orbit from
    rest at its perihelion stays bounded only behind the barrier of W at
    u+ = (1 + sqrt(1 - 4 eps))/(2q) = d/q of _drift_frame, the larger root
    of u (1 - q u) = c. It falls into the quantum if eps >= 1/4 (no
    barrier), u_p >= u+, or W(u_p) >= W(u+). Both sides are compared as
    q^2 W = x^2/2 + eps log1p(-x) in x = q u, which cannot overflow, with
    1 - x+ = 2 eps/(1 + s) formed without cancellation. With r_p omitted
    (a model with no perihelion) only eps >= 1/4 is refused. eps = 0 (q = 0,
    Newton's conic) always passes. A name, if given, leads the message. An
    int product past the float range reads as float arguments give it.

    The box eps < 0.01, x_p < 0.9 always passes:
    - x+ falls as eps grows and is 0.9899 at eps = 0.01, above 0.9 > x_p;
    - q^2 W(x+) falls as eps grows, since its derivative in eps is
      log(1 - x+) < 0 (W' vanishes at x+), and is 0.444 at eps = 0.01,
      above x_p^2/2 < 0.405, which bounds q^2 W(x_p) because log1p(-x_p) < 0.
    """
    try:
        eps = quantum * mu / (h * h)
    except OverflowError:
        eps = math.inf if quantum * mu > _FLOAT_MAX else 0.0
    if eps < 0.25:
        if r_p is None or eps == 0.0:
            return eps
        x_p = quantum / r_p
        s = math.sqrt(1.0 - 4.0 * eps)
        x_plus = 0.5 * (1.0 + s)
        if x_p < x_plus:
            w_p = 0.5 * x_p * x_p + eps * math.log1p(-x_p)
            w_plus = 0.5 * x_plus * x_plus + eps * math.log(2.0 * eps / (1.0 + s))
            if w_p < w_plus:
                return eps
    named = "" if name is None else f"{name}: "
    raise ModelBreakdownError(
        f"{named}quantum {quantum!r} m too large for this orbit: the exact orbit "
        f"from perihelion is unbounded (epsilon = {eps!r})")


def _check_escape(name: str, c: float, q: float, u0: float) -> None:
    """DomainError, naming the planet, unless the exact orbit from rest at
    u0 turns back before u = 0: by the first integral above and W(0) = 0,
    only if W(u0) < 0, that is u0 < 2 c L(q u0) with L(x) = -log1p(-x)/x
    and L(0) = 1 (h^2 < 2 mu r_p at q = 0). An orbit that passes this
    escape test and _epsilon's rule is periodic."""
    x = q * u0
    bound = 2.0 * c * (-math.log1p(-x) / x if x else 1.0)
    if not u0 < bound:
        raise DomainError(f"{name}: the exact orbit from perihelion escapes, its speed "
                          f"there at or above escape speed (1/r_p = {u0!r} /m is not below "
                          f"2 c L(q/r_p) = {bound!r} /m)")


def _drift_frame(c: float, q: float) -> tuple[float, float, float, float]:
    """(u_star, d, kappa, omega) at the bottom of the well W: the circular
    point u_star is the smaller root of u (1 - q u) = c, and with
    d = 1 - q u_star, kappa = c q/d^2 and omega = sqrt(1 - kappa) the
    deviation w = u - u_star obeys w'' = -omega^2 w + R exactly, with
    R = kappa q w^2 / (d - q w). omega is the small-oscillation frequency."""
    u_star = 2.0 * c / (1.0 + math.sqrt(1.0 - 4.0 * q * c))
    d = 1.0 - q * u_star
    kappa = c * q / (d * d)
    return u_star, d, kappa, math.sqrt(1.0 - kappa)


class QuantizedModel(Record):
    """One planet/quantum pairing: the force and orbit model instance.

    quantum  space quantum, m (0 recovers Newton)
    mu       gravitational parameter GM, m^3/s^2
    h        specific angular momentum, m^2/s

    The model carries GM alone: G never enters an orbit, only the
    two-mass force laws below take it. Construction keeps
    epsilon = quantum * mu / h^2, which takes no part in equality, hashing
    or repr; epsilon >= 1/4, where no exact orbit is bounded, raises
    ModelBreakdownError, naming no planet. A model has no perihelion, so
    construction applies only this half of the rule.
    """

    _fields = ("quantum", "mu", "h")

    def __init__(self, quantum: float, mu: float, h: float) -> None:
        self.__dict__.update(quantum=quantum, mu=mu, h=h)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not 0 <= self.quantum <= _FLOAT_MAX:
            raise DomainError(f"space quantum must be >= 0, got {self.quantum!r}")
        if not 0 < self.mu <= _FLOAT_MAX:
            raise DomainError(f"gravitational parameter must be positive, got {self.mu!r}")
        if not 0 < self.h <= _FLOAT_MAX:
            raise DomainError(f"angular momentum must be positive, got {self.h!r}")
        self.__dict__["epsilon"] = _epsilon(self.quantum, self.mu, self.h)


def state_weight(n_states: int) -> float:
    """Statistical weight 1/L of each state of a system with L separation states."""
    if n_states < 1:
        raise DomainError(f"state count must be >= 1, got {n_states!r}")
    return 1.0 / n_states


def weight_increment(n_states: int) -> float:
    """Weight gained contracting from L to L-1 states: 1/(L-1) - 1/L = 1/(L(L-1)).

    Evaluated in product form; the difference form loses ~6 digits to
    cancellation near L = 1e6 and would break the exactness invariant.
    """
    if n_states < 2:
        raise DomainError(f"weight increment needs a predecessor state, got L={n_states!r}")
    return 1.0 / (n_states * (n_states - 1))


def corrected_force(g: float, m1: float, m2: float, separation: float,
                    quantum: float) -> float:
    """Quantized-length force G m1 m2 / (L (L - q)).

    Strictly decreasing in separation on (q, inf); equals the Newtonian
    value when q = 0. Separations at or below the quantum are a hard error:
    clamping would silently corrupt integrator results. Every argument must
    lie in the float range: nan, inf and an int beyond it raise DomainError.
    An int product past the float range reads as float arguments give it.
    """
    if not 0 < g <= _FLOAT_MAX:
        raise DomainError(f"G must be positive, got {g!r}")
    if not (0 <= m1 <= _FLOAT_MAX and 0 <= m2 <= _FLOAT_MAX):
        raise DomainError(f"masses must be >= 0, got {m1!r}, {m2!r}")
    if not 0 <= quantum <= _FLOAT_MAX:
        raise DomainError(f"space quantum must be >= 0, got {quantum!r}")
    if separation <= quantum:
        raise SingularityError(separation, quantum)
    if not separation <= _FLOAT_MAX:
        raise DomainError(f"separation must be positive, got {separation!r}")
    try:
        return g * m1 * m2 / (separation * (separation - quantum))
    except OverflowError:
        return math.inf if g * m1 * m2 > _FLOAT_MAX else 0.0


def newtonian_force(g: float, m1: float, m2: float, separation: float) -> float:
    """Newton's inverse-square law; the quantum-free limit of corrected_force."""
    if separation <= 0:
        raise DomainError(f"separation must be positive, got {separation!r}")
    return corrected_force(g, m1, m2, separation, 0.0)


def gr_precession_baseline(el: PlanetElements) -> PrecessionResult:
    """Standard general-relativity per-orbit perihelion advance, as a baseline.

    Uses the textbook 6 pi GM / (c^2 a (1 - e^2)) per revolution. This is
    standard-literature material included only for comparison tables; it is
    not part of the quantized-force model.
    """
    orbit = derive_orbit(el)
    c = C_LIGHT
    per_orbit = 6.0 * math.pi * orbit.mu / (c * c * el.a * (1.0 - el.e * el.e))
    per_century = per_orbit * orbit.orbits_per_century * ARCSEC_PER_RAD
    if not math.isfinite(per_century):
        raise DomainError(f"{el.name}: the GR baseline per century exceeds the float range")
    return PrecessionResult(per_orbit_rad=per_orbit, per_century_arcsec=per_century,
                            provenance=Provenance.GR_BASELINE)

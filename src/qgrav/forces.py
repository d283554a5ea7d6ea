"""Force laws: quantized-length correction to the inverse square, and baselines.

The corrected attraction between two masses a distance L apart, when length
is only resolvable in units of a minimal quantum q, is

    F = G m1 m2 / (L (L - q))

which is Newton's law with one factor of L shifted by the quantum. The
statistical origin is a state-counting argument: a system whose separation
is L quanta has states of weight 1/L, and the interaction strength follows
the weight increment 1/(L-1) - 1/L = 1/(L(L-1)) gained by contracting one
quantum.
"""

from __future__ import annotations

import math

from .bodies import CONSTANTS, ARCSEC_PER_RAD, PlanetElements, derive_orbit
from .errors import DomainError, SingularityError
from .precession import PrecessionResult, Provenance, _check_bounded
from .record import Record

# CODATA Newton constant, m^3 kg^-1 s^-2. Kept independent of the quantum:
# every orbital computation uses GM directly, so G never enters the pipeline.
NEWTON_G = 6.6743e-11


class QuantizedModel(Record):
    """One planet/quantum pairing: the force and orbit model instance.

    quantum  space quantum, m (0 recovers Newton)
    mu       gravitational parameter GM, m^3/s^2
    h        specific angular momentum, m^2/s; may be None when only the
             force, not an orbit, is modelled

    The model carries GM alone: G never enters an orbit, only the
    two-mass force laws below take it. With h set, epsilon >= 1/4, where
    no exact orbit is bounded, raises ModelBreakdownError.
    """

    _fields = ("quantum", "mu", "h")

    def __init__(self, quantum: float, mu: float, h: float | None = None) -> None:
        self.__dict__.update(quantum=quantum, mu=mu, h=h)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.quantum) and self.quantum >= 0):
            raise DomainError(f"space quantum must be >= 0, got {self.quantum!r}")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise DomainError(f"gravitational parameter must be positive, got {self.mu!r}")
        if self.h is not None:
            if not (math.isfinite(self.h) and self.h > 0):
                raise DomainError(f"angular momentum must be positive, got {self.h!r}")
            _check_bounded(self.quantum, self.epsilon)

    @property
    def epsilon(self) -> float:
        """Dimensionless perturbation strength quantum * mu / h^2."""
        if self.h is None:
            raise DomainError("epsilon requires an orbit model (h is not set)")
        return self.quantum * self.mu / (self.h * self.h)


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
    clamping would silently corrupt integrator results.
    """
    if not (math.isfinite(g) and g > 0):
        raise DomainError(f"G must be positive, got {g!r}")
    if m1 < 0 or m2 < 0:
        raise DomainError(f"masses must be >= 0, got {m1!r}, {m2!r}")
    if not (math.isfinite(quantum) and quantum >= 0):
        raise DomainError(f"space quantum must be >= 0, got {quantum!r}")
    if separation <= quantum:
        raise SingularityError(separation, quantum)
    return g * m1 * m2 / (separation * (separation - quantum))


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
    c = CONSTANTS.c
    per_orbit = 6.0 * math.pi * orbit.mu / (c * c * el.a * (1.0 - el.e * el.e))
    per_century = per_orbit * orbit.orbits_per_century * ARCSEC_PER_RAD
    return PrecessionResult(per_orbit_rad=per_orbit, per_century_arcsec=per_century,
                            provenance=Provenance.GR_BASELINE)

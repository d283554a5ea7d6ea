"""Exception hierarchy shared by all qgrav modules. A refusal names its
planet where it is decided, in forces; no wrapper adds the name after."""

from __future__ import annotations


class QgravError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QgravError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class IngestionError(QgravError, ValueError):
    """A data file or record violates the expected schema or an invariant."""


class ModelBreakdownError(QgravError):
    """The space quantum is too large for the orbit.

    Every path (the closed form, its inversion, the model and the
    integrator) applies one rule, in forces._epsilon, which forms
    epsilon = q mu / h^2: the exact orbit from the perihelion must be
    bounded, which fails from epsilon = 1/4 at the latest. The two row
    paths, sweep_delta and invert_delta, first test a box inside which the
    rule always passes, and past it ask planet_precession, so each refusal
    is its own. Only forces raises it, its message led by "<planet>: " when
    the caller took elements (orbit_params and QuantizedModel take none).
    """


class SingularityError(QgravError):
    """Separation at or below the space quantum: the force law diverges."""

    def __init__(self, separation: float, quantum: float):
        self.separation = separation
        self.quantum = quantum
        super().__init__(
            f"separation {separation!r} m is at or below the space quantum "
            f"{quantum!r} m"
        )


class StepFailureError(QgravError):
    """Adaptive integrator step size underflowed before meeting the tolerance."""


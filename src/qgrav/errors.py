"""Exception hierarchy shared by all qgrav modules."""

from __future__ import annotations


class QgravError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QgravError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class IngestionError(QgravError, ValueError):
    """A data file or record violates the expected schema or an invariant."""


class ModelBreakdownError(QgravError):
    """The space quantum is too large for the orbit.

    The closed form needs epsilon = q mu / h^2 < 1. Integrating from a
    perihelion start also needs the exact orbit to be bounded, which fails
    at smaller quanta (from epsilon = 1/4 at the latest).
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


class InsufficientSpanError(QgravError):
    """Trajectory does not span enough perihelion passages to measure an advance."""


class StepFailureError(QgravError):
    """Adaptive integrator step size underflowed before meeting the tolerance."""

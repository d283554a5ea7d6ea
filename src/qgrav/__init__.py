"""qgrav: perihelion precession from a quantized-length correction to gravity.

A minimal measurable length q turns Newton's inverse square into
F = G m1 m2 / (L (L - q)), which opens closed Keplerian ellipses into
slowly precessing rosettes. This package provides the corrected force law,
the closed-form precessing orbit, exact numerical cross-validation, and
calibration of the underlying measurement-error angle against observed
planetary precession.

The analytic chain, the integrator and measured_precession need only the
standard library; numpy is loaded by the functions that return arrays
(integrate, detect_perihelia, closed_form_radius) on their first call.
The integrator layer (qgrav.orbit) still takes a few milliseconds to
import, so its names are resolved on first use and importing the package
alone does not load it.
"""

import importlib

from .bodies import (ARCSEC_PER_RAD, CONSTANTS, CONSTANTS_VERSION, Constants,
                     DerivedOrbit, PlanetElements, arcsec_to_rad, derive_orbit,
                     load_planets, planet_by_name, rad_to_arcsec)
from .calibrate import (Observation, FitResult, fit_delta, invert_delta,
                        load_observations, sweep_delta)
from .errors import (DomainError, IngestionError, InsufficientSpanError,
                     ModelBreakdownError, QgravError, SingularityError,
                     StepFailureError)
from .forces import (NEWTON_G, QuantizedModel, corrected_force,
                     gr_precession_baseline, newtonian_force, state_weight,
                     weight_increment)
from .precession import (AnalyticOrbit, PrecessionResult, Provenance,
                         QuantumRule, amplitude_from_perihelion, analytic_orbit,
                         closed_form_radius, orbit_params, planet_precession,
                         precession_per_century, precession_per_orbit,
                         quantum_from_error)

__version__ = "0.1.0"

_ORBIT_NAMES = frozenset({"BinetState", "PerihelionSeries", "Trajectory",
                          "binet_rhs", "detect_perihelia", "integrate",
                          "measured_precession"})


def __getattr__(name: str):
    # Looked up on every access and never stored here, so a later rebinding
    # at qgrav.orbit (a test double, a profiler's wrapper) is seen through
    # the package too.
    if name == "orbit" or name in _ORBIT_NAMES:
        orbit = importlib.import_module(".orbit", __name__)
        return orbit if name == "orbit" else getattr(orbit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ARCSEC_PER_RAD", "CONSTANTS", "CONSTANTS_VERSION", "Constants",
    "DerivedOrbit", "PlanetElements", "arcsec_to_rad", "derive_orbit",
    "load_planets", "planet_by_name", "rad_to_arcsec",
    "Observation", "FitResult", "fit_delta", "invert_delta",
    "load_observations", "sweep_delta",
    "DomainError", "IngestionError", "InsufficientSpanError",
    "ModelBreakdownError", "QgravError", "SingularityError", "StepFailureError",
    "NEWTON_G", "QuantizedModel", "corrected_force", "gr_precession_baseline",
    "newtonian_force", "state_weight", "weight_increment",
    "BinetState", "PerihelionSeries", "Trajectory", "binet_rhs",
    "detect_perihelia", "integrate", "measured_precession",
    "AnalyticOrbit", "PrecessionResult", "Provenance", "QuantumRule",
    "amplitude_from_perihelion", "analytic_orbit", "closed_form_radius",
    "orbit_params", "planet_precession", "precession_per_century",
    "precession_per_orbit", "quantum_from_error",
    "__version__",
]

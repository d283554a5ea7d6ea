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
The value classes are plain frozen records (qgrav.record), not dataclasses,
so the package, the integrator layer (qgrav.orbit) included, imports
without the dataclasses and inspect modules.
"""

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
from .orbit import (PerihelionSeries, Trajectory, binet_rhs, detect_perihelia,
                    integrate, measured_precession)
from .precession import (AnalyticOrbit, PrecessionResult, Provenance,
                         QuantumRule, amplitude_from_perihelion, analytic_orbit,
                         closed_form_radius, orbit_params, planet_precession,
                         precession_per_century, precession_per_orbit,
                         quantum_from_error)

__version__ = "0.1.0"

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
    "PerihelionSeries", "Trajectory", "binet_rhs",
    "detect_perihelia", "integrate", "measured_precession",
    "AnalyticOrbit", "PrecessionResult", "Provenance", "QuantumRule",
    "amplitude_from_perihelion", "analytic_orbit", "closed_form_radius",
    "orbit_params", "planet_precession", "precession_per_century",
    "precession_per_orbit", "quantum_from_error",
    "__version__",
]

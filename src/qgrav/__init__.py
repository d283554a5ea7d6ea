"""qgrav: perihelion precession from a quantized-length correction to gravity.

A minimal measurable length q turns Newton's inverse square into
F = G m1 m2 / (L (L - q)), which opens closed Keplerian ellipses into
slowly precessing rosettes. This package provides the corrected force law,
the closed-form perihelion advance, exact numerical cross-validation, and
calibration of the underlying measurement-error angle against observed
planetary precession.

The package needs only the standard library. integrate returns a
Trajectory whose sample fields are array('d'). The value classes are plain
frozen records (qgrav.record), not dataclasses, so the package, the
integrator layer (qgrav.orbit) included, imports without the dataclasses
and inspect modules.
"""

from .bodies import (ARCSEC_PER_RAD, AU, C_LIGHT, CENTURY_DAYS, CONSTANTS_VERSION,
                     GM_SUN, DerivedOrbit, PlanetElements, arcsec_to_rad,
                     derive_orbit, load_planets, planet_by_name, rad_to_arcsec)
from .calibrate import (Observation, FitResult, fit_delta, invert_delta,
                        load_observations, sweep_delta)
from .errors import (DomainError, IngestionError, ModelBreakdownError, QgravError,
                     SingularityError, StepFailureError)
from .forces import (NEWTON_G, PrecessionResult, Provenance, QuantizedModel,
                     corrected_force, gr_precession_baseline, newtonian_force,
                     state_weight, weight_increment)
from .orbit import Trajectory, integrate, measured_precession
from .precession import (QuantumRule, orbit_params, planet_precession,
                         quantum_from_error)

__version__ = "0.1.0"

__all__ = [
    "ARCSEC_PER_RAD", "AU", "C_LIGHT", "CENTURY_DAYS", "CONSTANTS_VERSION", "GM_SUN",
    "DerivedOrbit", "PlanetElements", "arcsec_to_rad", "derive_orbit",
    "load_planets", "planet_by_name", "rad_to_arcsec",
    "Observation", "FitResult", "fit_delta", "invert_delta",
    "load_observations", "sweep_delta",
    "DomainError", "IngestionError", "ModelBreakdownError", "QgravError",
    "SingularityError", "StepFailureError",
    "NEWTON_G", "QuantizedModel", "corrected_force", "gr_precession_baseline",
    "newtonian_force", "state_weight", "weight_increment",
    "Trajectory", "integrate", "measured_precession",
    "PrecessionResult", "Provenance", "QuantumRule",
    "orbit_params", "planet_precession", "quantum_from_error",
    "__version__",
]

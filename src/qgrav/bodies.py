"""Physical constants, angle conversions, planetary elements and derived orbit quantities.

All internal computation is SI (m, s, rad); periods are stored in days and
converted on derivation. Angles for reporting are arcseconds per Julian
century (36525 days). Every orbit is a solar orbit: GM and c are the bundled
CONSTANTS, and each PlanetElements derives its orbit once, when it is built.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import IO

from .errors import DomainError, IngestionError

# 1 rad = 648000/pi arcsec; by definition of the arcsecond.
ARCSEC_PER_RAD = 648000.0 / math.pi

DAY_S = 86400.0

# Version tag for the bundled constant set below (reported in machine output).
CONSTANTS_VERSION = "qgrav-constants-1"

DATA_DIR_ENV = "QGRAV_DATA_DIR"

PLANETS_FILENAME = "planets.json"
OBSERVATIONS_FILENAME = "observations.json"


def _is_finite_number(value: object) -> bool:
    """A finite int or float; bool is excluded although it subclasses int."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class Constants:
    """Solar-system constants used by the precession pipeline.

    gm_sun is the heliocentric gravitational parameter GM (m^3/s^2); every
    orbital formula consumes GM directly, so the Newton constant never has
    to be separated from the solar mass.
    """

    gm_sun: float = 1.32712440018e20   # m^3 s^-2
    c: float = 299792458.0             # m s^-1
    au: float = 1.495978707e11         # m
    julian_year_days: float = 365.25
    century_days: float = 36525.0
    arcsec_per_rad: float = ARCSEC_PER_RAD

    def __post_init__(self) -> None:
        for field in ("gm_sun", "c", "au", "julian_year_days", "century_days",
                      "arcsec_per_rad"):
            value = getattr(self, field)
            if not (_is_finite_number(value) and value > 0):
                raise DomainError(f"constant {field} must be finite and positive, got {value!r}")
        if abs(self.arcsec_per_rad * (math.pi / 648000.0) - 1.0) > 4 * 2.22e-16:
            raise DomainError("arcsec_per_rad is inconsistent with the arcsecond definition")


CONSTANTS = Constants()


def arcsec_to_rad(x: float) -> float:
    """Convert arcseconds to radians (x * pi / 648000)."""
    if not math.isfinite(x):
        raise DomainError(f"angle must be finite, got {x!r}")
    return x * math.pi / 648000.0


def rad_to_arcsec(x: float) -> float:
    """Convert radians to arcseconds; inverse of arcsec_to_rad."""
    if not math.isfinite(x):
        raise DomainError(f"angle must be finite, got {x!r}")
    return x * ARCSEC_PER_RAD


@dataclass(frozen=True)
class DerivedOrbit:
    """Orbit quantities the precession pipeline consumes.

    b    semi-minor axis, m
    r_p  perihelion distance, m
    h    specific angular momentum 2*pi*a*b/tau, m^2/s
    mu   gravitational parameter GM of the Sun, m^3/s^2
    orbits_per_century  revolutions per 36525 days
    """

    b: float
    r_p: float
    h: float
    mu: float
    orbits_per_century: float


@dataclass(frozen=True)
class PlanetElements:
    """Named orbital elements: semi-major axis (m), eccentricity, sidereal period (days).

    Construction validates the elements and derives their solar orbit, which
    derive_orbit returns. The orbit takes no part in equality, hashing or
    repr; those rest on the four elements alone.
    """

    name: str
    a: float
    e: float
    tau_days: float
    orbit: DerivedOrbit = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        label = self.name if self.name else "<unnamed>"
        if not self.name or not isinstance(self.name, str):
            raise IngestionError(f"planet record {label!r}: name must be a non-empty string")
        _check_unpadded(self.name, "planet")
        for attr in ("a", "e", "tau_days"):
            value = getattr(self, attr)
            if not _is_finite_number(value):
                raise IngestionError(f"planet {label!r}: {attr} must be a finite number, got {value!r}")
        if self.a <= 0:
            raise IngestionError(f"planet {label!r}: semi-major axis must be positive, got {self.a!r}")
        if not 0.0 <= self.e < 1.0:
            raise IngestionError(f"planet {label!r}: eccentricity must satisfy 0 <= e < 1, got {self.e!r}")
        if self.tau_days <= 0:
            raise IngestionError(f"planet {label!r}: period must be positive, got {self.tau_days!r}")
        b = self.a * math.sqrt(1.0 - self.e * self.e)
        r_p = self.a * (1.0 - self.e)
        h = 2.0 * math.pi * self.a * b / (self.tau_days * DAY_S)
        orbits_per_century = CONSTANTS.century_days / self.tau_days
        # epsilon divides by h^2 and every centurial figure multiplies by the
        # orbit count, so elements whose floats over- or underflow there are
        # refused here rather than turned into a crash or a nan later.
        for quantity, value in (("h^2", h * h), ("orbits per century", orbits_per_century)):
            if not (math.isfinite(value) and value > 0):
                raise IngestionError(
                    f"planet {label!r}: derived {quantity} must be finite and positive, got {value!r}")
        object.__setattr__(self, "orbit", DerivedOrbit(
            b=b, r_p=r_p, h=h, mu=CONSTANTS.gm_sun, orbits_per_century=orbits_per_century))


def derive_orbit(el: PlanetElements) -> DerivedOrbit:
    """b, r_p, h, GM and orbit count per century of the named elements.

    The orbit was derived when the elements were built, so this returns that
    one object: repeated calls cost an attribute read and agree bit for bit.
    """
    return el.orbit


_PLANET_FIELDS = {"name", "a_m", "e", "tau_days"}


def _read_json(source: str | Path | IO[str], what: str) -> object:
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
        origin = getattr(source, "name", "<stream>")
    else:
        path = Path(source)  # type: ignore[arg-type]
        if not path.exists():
            raise IngestionError(f"{what} file not found: {path}")
        text = path.read_text()
        origin = str(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{what} file {origin} is not valid JSON: {exc}") from exc


def _is_version_one(value: object) -> bool:
    """True for the schema version 1; bool is excluded although True == 1."""
    return value == 1 and not isinstance(value, bool)


def _check_unpadded(name: str, what: str) -> None:
    """Reject a name with leading or trailing whitespace.

    Lookups strip the query, so a padded record name could never be found.
    """
    if name != name.strip():
        raise IngestionError(f"{what} {name!r}: name must not start or end with whitespace")


def _check_unique(name: str, seen: set[str], what: str) -> None:
    """Reject a record whose name repeats an earlier one, ignoring case.

    Lookups and results are keyed by name, so a repeat would be merged away.
    """
    key = name.lower()
    if key in seen:
        raise IngestionError(f"duplicate {what} {name!r}: names must be unique, ignoring case")
    seen.add(key)


def data_dir_override() -> Path | None:
    """Directory named by QGRAV_DATA_DIR, or None when the variable is unset."""
    value = os.environ.get(DATA_DIR_ENV)
    return Path(value) if value else None


def bundled_data_path(filename: str) -> Path:
    """Path to a bundled data file, honouring the QGRAV_DATA_DIR override."""
    override = data_dir_override()
    if override is not None:
        return override / filename
    # The package ships as a plain directory, so the traversable is a real path.
    return Path(str(resources.files("qgrav").joinpath("data", filename)))


def load_planets(source: str | Path | IO[str] | None = None) -> list[PlanetElements]:
    """Load and validate planetary elements.

    The file is a JSON document {"schema_version": 1, "planets": [...]} where
    each record carries exactly the fields name, a_m, e, tau_days. With no
    source, the bundled table (or its QGRAV_DATA_DIR override) is used.
    An empty planets list is valid and yields an empty result. Names must
    be unique, ignoring case.
    """
    if source is None:
        source = bundled_data_path(PLANETS_FILENAME)
    doc = _read_json(source, "planets")
    if not isinstance(doc, dict):
        raise IngestionError("planets file must be a JSON object")
    extra = set(doc) - {"schema_version", "planets"}
    if extra:
        raise IngestionError(f"planets file has unknown top-level fields: {sorted(extra)}")
    if not _is_version_one(doc.get("schema_version")):
        raise IngestionError(f"planets file schema_version must be 1, got {doc.get('schema_version')!r}")
    records = doc.get("planets")
    if not isinstance(records, list):
        raise IngestionError("planets file must carry a 'planets' list")
    planets: list[PlanetElements] = []
    seen: set[str] = set()
    for index, record in enumerate(records):
        label = record.get("name", f"#{index}") if isinstance(record, dict) else f"#{index}"
        if not isinstance(record, dict):
            raise IngestionError(f"planet record {label!r} is not an object")
        fields = set(record)
        if fields != _PLANET_FIELDS:
            unknown = sorted(fields - _PLANET_FIELDS)
            missing = sorted(_PLANET_FIELDS - fields)
            raise IngestionError(
                f"planet record {label!r}: unknown fields {unknown}, missing fields {missing}"
            )
        planet = PlanetElements(name=record["name"], a=record["a_m"],
                                e=record["e"], tau_days=record["tau_days"])
        _check_unique(planet.name, seen, "planet")
        planets.append(planet)
    return planets


def planet_by_name(planets: list[PlanetElements], name: str) -> PlanetElements:
    """Case-insensitive lookup of a planet by name."""
    wanted = name.strip().lower()
    for planet in planets:
        if planet.name.lower() == wanted:
            return planet
    known = ", ".join(p.name for p in planets) or "<none>"
    raise IngestionError(f"unknown planet {name!r} (known: {known})")

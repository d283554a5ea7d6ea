"""Physical constants, angle conversions, planetary elements, derived orbit
quantities, and _load_records, the one reader and checker of both data files.

All internal computation is SI (m, s, rad); periods are stored in days and
converted on derivation. Angles for reporting are arcseconds per Julian
century (CENTURY_DAYS). Every orbit is a solar orbit under the module
constants GM_SUN and C_LIGHT, and each PlanetElements derives it once.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from collections.abc import Callable

from .errors import DomainError, IngestionError
from .record import Record

# 1 rad = 648000/pi arcsec; by definition of the arcsecond.
ARCSEC_PER_RAD = 648000.0 / math.pi

DAY_S = 86400.0

# Every orbital formula consumes the Sun's GM directly, never G alone.
GM_SUN = 1.32712440018e20   # m^3 s^-2
C_LIGHT = 299792458.0       # m s^-1
AU = 1.495978707e11         # m
CENTURY_DAYS = 36525.0      # days in a Julian century

# Version tag for the constants above (reported in machine output).
CONSTANTS_VERSION = "qgrav-constants-1"

DATA_DIR_ENV = "QGRAV_DATA_DIR"

# A range test against this, unlike math.isfinite, refuses an int beyond the
# float range instead of raising OverflowError, and refuses nan and +-inf.
_FLOAT_MAX = sys.float_info.max


def _is_finite_number(value: object) -> bool:
    """A finite float or an int within the float range (compared exactly, so
    a huge int cannot overflow); bool is excluded although it subclasses int."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= _FLOAT_MAX)


def _check_record(record: Record, what: str, name_field: str,
                  number_fields: tuple[str, ...]) -> None:
    """Reject a record whose name is not a non-empty string, or is padded with
    whitespace (lookups strip the query, so it could never be found), or
    whose number fields are not finite numbers."""
    name = getattr(record, name_field)
    if not isinstance(name, str) or not name:
        raise IngestionError(f"{what} record {name!r}: {name_field} must be a non-empty string")
    if name != name.strip():
        raise IngestionError(f"{what} {name!r}: name must not start or end with whitespace")
    for field in number_fields:
        value = getattr(record, field)
        if not _is_finite_number(value):
            raise IngestionError(f"{what} {name!r}: {field} must be a finite number, got {value!r}")


def arcsec_to_rad(x: float) -> float:
    """Convert arcseconds to radians (x * pi / 648000)."""
    if not -_FLOAT_MAX <= x <= _FLOAT_MAX:
        raise DomainError(f"angle must be finite, got {x!r}")
    return x * math.pi / 648000.0


def rad_to_arcsec(x: float) -> float:
    """Convert radians to arcseconds; inverse of arcsec_to_rad."""
    if not -_FLOAT_MAX <= x <= _FLOAT_MAX:
        raise DomainError(f"angle must be finite, got {x!r}")
    return x * ARCSEC_PER_RAD


class DerivedOrbit(Record):
    """Orbit quantities the precession pipeline consumes.

    b    semi-minor axis, m
    r_p  perihelion distance, m
    h    specific angular momentum 2*pi*a*b/tau, m^2/s
    mu   gravitational parameter GM of the Sun, m^3/s^2
    orbits_per_century  revolutions per 36525 days
    """

    _fields = ("b", "r_p", "h", "mu", "orbits_per_century")

    def __init__(self, b: float, r_p: float, h: float, mu: float,
                 orbits_per_century: float) -> None:
        self.__dict__.update(b=b, r_p=r_p, h=h, mu=mu, orbits_per_century=orbits_per_century)


class PlanetElements(Record):
    """Named orbital elements: semi-major axis (m), eccentricity, sidereal period (days).

    Construction validates the elements and derives their solar orbit, which
    derive_orbit returns. The orbit takes no part in equality, hashing or
    repr; those rest on the four elements alone.
    """

    _fields = ("name", "a", "e", "tau_days")

    def __init__(self, name: str, a: float, e: float, tau_days: float) -> None:
        self.__dict__.update(name=name, a=a, e=e, tau_days=tau_days)
        _check_record(self, "planet", "name", ("a", "e", "tau_days"))
        if self.a <= 0:
            raise IngestionError(f"planet {name!r}: semi-major axis must be positive, got {self.a!r}")
        if not 0.0 <= self.e < 1.0:
            raise IngestionError(f"planet {name!r}: eccentricity must satisfy 0 <= e < 1, got {self.e!r}")
        if self.tau_days <= 0:
            raise IngestionError(f"planet {name!r}: period must be positive, got {self.tau_days!r}")
        b = self.a * math.sqrt(1.0 - self.e * self.e)
        r_p = self.a * (1.0 - self.e)
        h = 2.0 * math.pi * self.a * b / (self.tau_days * DAY_S)
        orbits_per_century = CENTURY_DAYS / self.tau_days
        # epsilon divides by h^2 and every centurial figure multiplies by the
        # orbit count, so elements whose floats over- or underflow there are
        # refused here rather than turned into a crash or a nan later.
        for quantity, value in (("h^2", h * h), ("orbits per century", orbits_per_century)):
            if not (math.isfinite(value) and value > 0):
                raise IngestionError(
                    f"planet {name!r}: derived {quantity} must be finite and positive, got {value!r}")
        self.__dict__["orbit"] = DerivedOrbit(
            b=b, r_p=r_p, h=h, mu=GM_SUN, orbits_per_century=orbits_per_century)


def derive_orbit(el: PlanetElements) -> DerivedOrbit:
    """b, r_p, h, GM and orbit count per century of the named elements.

    The orbit was derived when the elements were built, so this returns that
    one object: repeated calls cost an attribute read and agree bit for bit.
    """
    return el.orbit


_PLANET_FIELDS = {"name", "a_m", "e", "tau_days"}


def _read_json(source: str | os.PathLike[str] | io.TextIOBase, what: str) -> object:
    """The JSON document in source; IngestionError if it is missing, unreadable or not JSON."""
    stream = hasattr(source, "read")
    origin = getattr(source, "name", "<stream>") if stream else os.fspath(source)
    try:
        if stream:
            return json.loads(source.read())  # type: ignore[union-attr]
        with open(origin.rstrip(os.sep) or origin, encoding="utf-8") as file:
            return json.loads(file.read())
    except FileNotFoundError as exc:
        raise IngestionError(f"{what} file not found: {origin}") from exc
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{what} file {origin} is not valid JSON: {exc}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise IngestionError(f"{what} file {origin} cannot be read as JSON: {exc}") from exc


def _check_unique(name: str, seen: set[str], what: str) -> None:
    """Reject a record whose name repeats an earlier one, ignoring case.

    Lookups and results are keyed by name, so a repeat would be merged away.
    """
    key = name.lower()
    if key in seen:
        raise IngestionError(f"duplicate {what} {name!r}: names must be unique, ignoring case")
    seen.add(key)


def bundled_data_path(filename: str) -> str:
    """Path to a bundled data file, honouring the QGRAV_DATA_DIR override."""
    # The package ships as a plain directory, so its data sit beside this file.
    directory = os.environ.get(DATA_DIR_ENV) or os.path.join(os.path.dirname(__file__), "data")
    return os.path.join(directory, filename)


def _load_records(source: str | os.PathLike[str] | io.TextIOBase | None, what: str, item: str,
                  fields: set[str], key: str, build: Callable[[dict], Record],
                  version_required: bool) -> list[Record]:
    """Read and check a data file, the one reader behind both loaders.

    The file, by default the bundled "<what>.json", is a JSON object
    {"schema_version": 1, what: [...]}; the version may be left out only
    where it is not required. Each record is an object with exactly the
    given fields, built by build, and its key names no earlier record,
    ignoring case.
    """
    doc = _read_json(bundled_data_path(f"{what}.json") if source is None else source, what)
    if not isinstance(doc, dict):
        raise IngestionError(f"{what} file must be a JSON object")
    extra = set(doc) - {"schema_version", what}
    if extra:
        raise IngestionError(f"{what} file has unknown top-level fields: {sorted(extra)}")
    version = doc.get("schema_version")
    # bool is excluded although True == 1
    if ((version_required or "schema_version" in doc)
            and not (version == 1 and not isinstance(version, bool))):
        raise IngestionError(f"{what} file schema_version must be 1, got {version!r}")
    records = doc.get(what)
    if not isinstance(records, list):
        raise IngestionError(f"{what} file must carry a list named {what!r}")
    out: list[Record] = []
    seen: set[str] = set()
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise IngestionError(f"{item} record #{index} is not an object")
        if record.keys() != fields:
            raise IngestionError(
                f"{item} record {record.get(key, f'#{index}')!r}: unknown fields "
                f"{sorted(record.keys() - fields)}, missing fields {sorted(fields - record.keys())}")
        out.append(build(record))
        _check_unique(record[key], seen, item)
    return out


def load_planets(source: str | os.PathLike[str] | io.TextIOBase | None = None
                 ) -> list[PlanetElements]:
    """Load and validate planetary elements.

    The file is a JSON document {"schema_version": 1, "planets": [...]} where
    each record carries exactly the fields name, a_m, e, tau_days. With no
    source, the bundled table (or its QGRAV_DATA_DIR override) is used.
    An empty planets list is valid and yields an empty result. Names must
    be unique, ignoring case.
    """
    return _load_records(
        source, "planets", "planet", _PLANET_FIELDS, "name",
        lambda r: PlanetElements(name=r["name"], a=r["a_m"], e=r["e"], tau_days=r["tau_days"]),
        version_required=True)


def planet_by_name(planets: list[PlanetElements], name: str) -> PlanetElements:
    """Case-insensitive lookup of a planet by name."""
    wanted = name.strip().lower()
    for planet in planets:
        if planet.name.lower() == wanted:
            return planet
    known = ", ".join(p.name for p in planets) or "<none>"
    raise IngestionError(f"unknown planet {name!r} (known: {known})")

"""Seeded input generation for the benchmark workloads.

Everything here is plain Python arithmetic on a ``random.Random(seed)``; no
qgrav code runs, so the same seed yields byte-identical inputs on every
version of the program under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

GM_SUN = 1.32712440018e20      # m^3/s^2, the package's bundled value
AU = 1.495978707e11            # m
DAY_S = 86400.0
CENTURY_DAYS = 36525.0
ARCSEC_PER_RAD = 648000.0 / math.pi

# The paper's planets and its headline error angle.
BUNDLED = (
    ("Mercury", 5.79092e10, 0.20563069, 87.96926),
    ("Venus", 1.08209e11, 0.00677323, 224.70080),
    ("Earth", 1.49598e11, 0.01671022, 365.25636),
)
PAPER_DELTA = 0.0398


@dataclass(frozen=True)
class Planet:
    name: str
    a: float
    e: float
    tau_days: float

    def record(self) -> dict:
        return {"name": self.name, "a_m": self.a, "e": self.e, "tau_days": self.tau_days}


@dataclass(frozen=True)
class Obs:
    planet: str
    value: float
    sigma: float

    def record(self) -> dict:
        return {"planet": self.planet, "value_arcsec": self.value, "sigma_arcsec": self.sigma}


def bundled_planets() -> list[Planet]:
    return [Planet(*row) for row in BUNDLED]


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi), shuffled.

    Keeps the mix of a seeded set (and so its cost) nearly the same on every
    seed while the individual values still change.
    """
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def synthetic_planets(rng: random.Random, n: int, prefix: str = "Syn") -> list[Planet]:
    """Kepler-consistent planets: a in 0.3..2 AU (log-uniform), e stratified over 0.05..0.5.

    The eccentricity sets the integrator's steps per orbit. Its lower bound
    keeps Venus (e = 0.0068) the most circular orbit in every case set, so
    the least well-conditioned perihelion is the same bundled one on every
    seed.
    """
    planets = []
    for i, e in enumerate(stratified(rng, n, 0.05, 0.5)):
        a = AU * math.exp(rng.uniform(math.log(0.3), math.log(2.0)))
        tau = 2.0 * math.pi * math.sqrt(a ** 3 / GM_SUN) / DAY_S
        planets.append(Planet(f"{prefix}{i:02d}", a, e, tau))
    return planets


def error_angle(rng: random.Random) -> float:
    """delta in arcsec: 0 one time in ten, else log-uniform over 0.01..300."""
    if rng.random() < 0.1:
        return 0.0
    return math.exp(rng.uniform(math.log(0.01), math.log(300.0)))


def first_order_arcsec(p: Planet, delta: float, rule: str = "perihelion") -> float:
    """Closed-form centurial advance in double precision (for observations only)."""
    b = p.a * math.sqrt(1.0 - p.e * p.e)
    scale = p.a * (1.0 - p.e) if rule == "perihelion" else b
    h = 2.0 * math.pi * p.a * b / (p.tau_days * DAY_S)
    eps = delta / ARCSEC_PER_RAD * scale * GM_SUN / (h * h)
    x = math.sqrt(1.0 - eps)
    return 2.0 * math.pi * eps / (x * (1.0 + x)) * CENTURY_DAYS / p.tau_days * ARCSEC_PER_RAD


def observations(rng: random.Random, planets: list[Planet], rule: str) -> list[Obs]:
    """Noisy observations of a shared delta near the paper's value."""
    delta_true = rng.uniform(0.02, 0.06)
    out = []
    for p in planets:
        sigma = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
        out.append(Obs(p.name, first_order_arcsec(p, delta_true, rule) + rng.gauss(0.0, sigma), sigma))
    return out


def write_planets(path: Path, planets: list[Planet]) -> Path:
    path.write_text(json.dumps({"schema_version": 1,
                                "planets": [p.record() for p in planets]}, indent=1))
    return path


def write_observations(path: Path, obs: list[Obs]) -> Path:
    path.write_text(json.dumps({"schema_version": 1,
                                "observations": [o.record() for o in obs]}, indent=1))
    return path


# --- numeric-precession ----------------------------------------------------

@dataclass(frozen=True)
class NumericCase:
    planet: Planet
    delta: float
    tol: float


N_ORBITS = 50


def numeric_cases(rng: random.Random, n_synthetic: int) -> list[NumericCase]:
    """The bundled planets at delta 0 and at the paper's value, at both
    tolerances, then seeded synthetic planets.

    Steps per orbit grow with the eccentricity and fall with the tolerance,
    so tolerances are dealt over the eccentricity strata (every third
    stratum at 1e-10) before the cases are shuffled: each seed then carries
    the same mix of cost, and the latency median sits inside the 1e-12
    cluster.
    """
    cases = [NumericCase(p, d, tol) for p in bundled_planets()
             for d in (0.0, PAPER_DELTA) for tol in (1e-12, 1e-10)]
    planets = sorted(synthetic_planets(rng, n_synthetic), key=lambda p: p.e)
    synthetic = [NumericCase(p, error_angle(rng), 1e-10 if k % 3 == 2 else 1e-12)
                 for k, p in enumerate(planets)]
    rng.shuffle(synthetic)
    return cases + synthetic


# --- cli-analytic and cli-orbit-export ---------------------------------------

CLI_COMMANDS = ("precess", "table", "fit", "sweep")
FORMATS = ("text", "csv", "json")


@dataclass(frozen=True)
class CliSpec:
    """One CLI invocation: argv after ``qgrav`` plus the parameters it encodes.

    planets_path/observations_path are None when the bundled data is read.
    """

    argv: tuple[str, ...]
    command: str
    fmt: str
    rule: str = "perihelion"
    planets_path: str | None = None
    observations_path: str | None = None
    planet: str | None = None
    delta: float | None = None
    deltas: tuple[float, ...] = ()
    sweep: tuple[float, float, int] | None = None
    orbits: int = 0


def cli_data(rng: random.Random, workdir: Path, n_planets: int) -> tuple[list[Planet], str, str]:
    planets = synthetic_planets(rng, n_planets)
    obs = observations(rng, planets[: max(2, (2 * n_planets) // 3)], "perihelion")
    return (planets, str(write_planets(workdir / "planets.json", planets)),
            str(write_observations(workdir / "observations.json", obs)))


def sweep_range(rng: random.Random, steps: int) -> tuple[float, float, int]:
    lo = rng.uniform(0.0, 0.02)
    return lo, lo + math.exp(rng.uniform(math.log(0.01), math.log(5.0))), steps


def analytic_specs(rng: random.Random, workdir: Path, n_specs: int = 24) -> list[CliSpec]:
    """precess/table/fit/sweep cycling through text, csv and json.

    The first twelve read the bundled data, precess at the paper's delta, so
    that the acceptance-gate values are checked; the rest read seeded files.
    """
    planets, ppath, opath = cli_data(rng, workdir, 24)
    specs = []
    for i in range(n_specs):
        command, fmt = CLI_COMMANDS[i % 4], FORMATS[(i // 4) % 3]
        bundled = i < 12
        pool = bundled_planets() if bundled else planets
        rule = "perihelion" if bundled or rng.random() < 0.5 else "semiminor"
        files = {} if bundled else {"planets_path": ppath, "observations_path": opath}
        argv = [command] + ([] if bundled else ["--planets", ppath])
        if command in ("table", "fit") and not bundled:
            argv += ["--observations", opath]
        params: dict = {}
        if command == "precess":
            params = {"planet": rng.choice(pool).name,
                      "delta": PAPER_DELTA if bundled else error_angle(rng)}
            argv += ["--planet", params["planet"].lower(), "--delta", repr(params["delta"])]
        elif command == "table":
            deltas = ((0.01, PAPER_DELTA, 0.05) if bundled else
                      tuple(sorted({round(error_angle(rng), 6) for _ in range(rng.randint(2, 5))})))
            params = {"deltas": deltas}
            if not bundled:
                argv += ["--deltas", ",".join(repr(d) for d in deltas)]
        elif command == "sweep":
            params = {"planet": rng.choice(pool).name,
                      "sweep": sweep_range(rng, 1000)}
            lo, hi, steps = params["sweep"]
            argv += ["--planet", params["planet"], "--delta-min", repr(lo),
                     "--delta-max", repr(hi), "--steps", str(steps)]
        argv += ["--rule", rule, "--format", fmt]
        specs.append(CliSpec(argv=tuple(argv), command=command, fmt=fmt, rule=rule,
                             **files, **params))
    return specs


ORBIT_COUNTS = (15, 25)


def orbit_specs(rng: random.Random, workdir: Path, n_trajectories: int = 6) -> list[CliSpec]:
    """``qgrav orbit`` for each seeded planet at a seeded delta, in all three formats.

    Orbit counts are spread evenly over 15..25 and shuffled over the planets,
    so that every seed exports about the same number of samples. At that size
    the integrator and the serializer take about a fifth of a call; start-up
    takes the rest.
    """
    planets, ppath, _ = cli_data(rng, workdir, n_trajectories)
    lo, hi = ORBIT_COUNTS
    counts = [lo + ((hi - lo) * k) // max(n_trajectories - 1, 1) for k in range(n_trajectories)]
    rng.shuffle(counts)
    specs = []
    for planet, orbits in zip(planets, counts):
        name, delta = planet.name, error_angle(rng)
        for fmt in FORMATS:
            argv = ("orbit", "--planets", ppath, "--planet", name, "--delta", repr(delta),
                    "--orbits", str(orbits), "--format", fmt)
            specs.append(CliSpec(argv=argv, command="orbit", fmt=fmt, planets_path=ppath,
                                 planet=name, delta=delta, orbits=orbits))
    return specs


# --- calibration-bulk ----------------------------------------------------------

@dataclass(frozen=True)
class CalibrationTask:
    planets: tuple[Planet, ...]
    observations: tuple[Obs, ...]
    planets_path: Path
    observations_path: Path
    rule: str
    sweep: tuple[float, float, int]


def calibration_tasks(rng: random.Random, workdir: Path, n_tasks: int = 24,
                      sizes: tuple[int, int] = (4, 16)) -> list[CalibrationTask]:
    """Tasks of sizes[0]..sizes[1] planets (observations, 1000-step sweeps), rules alternating.

    Sizes are spread evenly and shuffled, so every seed has the same mix of
    cost. Task costs then cover a fourfold range and the latency median
    moves smoothly with the machine's speed; with tasks of one size it
    jumps between the host's fast and slow speed levels.
    """
    lo, hi = sizes
    counts = [lo + ((hi - lo) * k) // max(n_tasks - 1, 1) for k in range(n_tasks)]
    rng.shuffle(counts)
    tasks = []
    for t, n_planets in enumerate(counts):
        rule = ("perihelion", "semiminor")[t % 2]
        planets = bundled_planets() + synthetic_planets(rng, n_planets - 3)
        obs = observations(rng, planets[: (2 * n_planets) // 3], rule)
        tasks.append(CalibrationTask(
            planets=tuple(planets), observations=tuple(obs),
            planets_path=write_planets(workdir / f"planets-{t}.json", planets),
            observations_path=write_observations(workdir / f"observations-{t}.json", obs),
            rule=rule, sweep=sweep_range(rng, 1000)))
    return tasks

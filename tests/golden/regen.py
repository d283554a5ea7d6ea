"""The golden stdout corpus of the qgrav command line, and its regenerator.

corpus.json records, for each argv in CASES, the exit code, the first line
of stderr and stdout: in full, or as sha256 and length for `orbit` exports.
It also records, for each of PRECESSION_CASES, what measured_precession
returns, both floats in hex, or the error it raises; no CLI case reaches
that function. test_golden.py runs every case again and requires the same
record, which turns "every byte unchanged" and "every bit unchanged" into
tests.

    PYTHONPATH=src python tests/golden/regen.py

rewrites corpus.json. Run it only for a change to the output bytes that
CHANGES.md records and explains.

    PYTHONPATH=src python tests/golden/regen.py --check

replays corpus.json with the standard library alone, so on an interpreter
without pytest too: it lists each argv and precession case whose record
differs and exits 1 if any does.

Cases run in-process through qgrav.cli.main with stdout and stderr
captured; a usage error arrives as SystemExit(2). "{golden}" in an argv
stands for this directory, which holds the data files the cases read. The
bytes depend on the platform's libm (log1p and the ** of step control are
not correctly rounded everywhere), so the corpus records the platform it
was made on, and a mismatch names both platforms.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from qgrav import QgravError, load_planets, measured_precession
from qgrav.cli import main as qgrav_main

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"

_FORMATS = ("text", "csv", "json")
_RULES = ("perihelion", "semiminor")
_COMMANDS = (
    ["table"],
    ["precess", "--planet", "mercury", "--delta", "0.0398"],
    ["orbit", "--planet", "mercury", "--delta", "0.0398"],
    ["fit"],
    ["sweep", "--planet", "venus"],
)
_PLANETS = ["--planets", "{golden}/planets.json"]
_OBSERVATIONS = ["--observations", "{golden}/observations.json"]

CASES = [command + ["--rule", rule, "--format", fmt]
         for command in _COMMANDS for rule in _RULES for fmt in _FORMATS] + [
    # orbit at tol 1e-8, 1e-14 and 1e-10, besides the default 1e-12 above
    ["orbit", "--planet", "venus", "--delta", "300", "--orbits", "5", "--tol", "1e-8",
     "--format", "csv"],
    ["orbit", "--planet", "earth", "--delta", "0.0398", "--orbits", "2", "--tol", "1e-14",
     "--format", "json"],
    ["orbit", "--planet", "Mercury", "--delta", "0", "--orbits", "1", "--tol", "1e-14"],
    ["orbit", "--planet", "mercury", "--delta", "3e4", "--orbits", "3", "--tol", "1e-10",
     "--format", "csv"],
    ["table", "--deltas", "300,0,1e-3", "--format", "csv"],
    ["sweep", "--planet", "earth", "--delta-min", "0", "--delta-max", "300", "--steps", "7",
     "--format", "json"],
    # a custom planets and observations file
    ["table", *_PLANETS, *_OBSERVATIONS],
    ["table", *_PLANETS, *_OBSERVATIONS, "--format", "csv"],
    ["table", *_PLANETS, *_OBSERVATIONS, "--rule", "semiminor", "--format", "json"],
    ["fit", *_PLANETS, *_OBSERVATIONS],
    ["fit", *_PLANETS, *_OBSERVATIONS, "--rule", "semiminor", "--format", "json"],
    ["precess", *_PLANETS, "--planet", "icarus", "--delta", "0.0398", "--format", "csv"],
    ["sweep", *_PLANETS, "--planet", "jupiter", "--steps", "4"],
    ["orbit", *_PLANETS, "--planet", "icarus", "--delta", "0.0398", "--orbits", "2",
     "--format", "csv"],
    ["orbit", *_PLANETS, "--planet", "mars", "--delta", "300", "--rule", "semiminor",
     "--format", "json"],
    # exit 2: a rejected flag or data file
    ["precess", "--planet", "pluto", "--delta", "0.0398"],
    ["table", "--planets", "{golden}/bad_planets.json", "--format", "json"],
    ["orbit", "--planet", "mercury", "--delta", "0.0398", "--tol", "1e-3"],
    ["sweep", "--planet", "venus", "--delta-min", "1", "--delta-max", "0.5"],
    # exit 3: the model cannot evaluate valid input
    ["precess", "--planet", "mercury", "--delta", "1e5", "--format", "json"],
    ["orbit", "--planet", "mercury", "--delta", "6e4", "--format", "csv"],
    ["table", "--deltas", "0.0398,1e5"],
    # a sweep whose first failing row is an interior one, and one whose
    # interior rows overflow: row 1 (5.7e307") to an infinite quantum, row 2
    # to an infinite delta
    ["sweep", "--planet", "mercury", "--delta-min", "0", "--delta-max", "1e6", "--steps", "1000"],
    ["sweep", "--planet", "mercury", "--delta-min", "0", "--delta-max", "1.7e308", "--steps", "4"],
    # Mercury's breakdown boundary: the last delta the perihelion rule
    # admits, the first it refuses, the first the semi-minor rule refuses,
    # and a sweep up to the last admitted whose rows all lie past the box
    ["precess", "--planet", "mercury", "--delta", "59783.32482258726", "--format", "json"],
    ["precess", "--planet", "mercury", "--delta", "59783.32482258727"],
    ["precess", "--planet", "mercury", "--rule", "semiminor", "--delta", "48527.07845886897"],
    ["sweep", "--planet", "mercury", "--delta-min", "30000", "--delta-max", "59783.32482258726",
     "--steps", "5", "--format", "csv"],
]

# measured_precession: every bundled planet x delta x tol at 50 orbits, then
# Mercury far from the linear frame: at an aphelion start (5.9e4"), where
# the exact radial period is 2.2 first-order ones (5.975e4"), and 1.3e-6 of
# delta below the breakdown boundary at 5.9783325e4", where it is 3.4
# (5.9783246e4")
PRECESSION_CASES = [
    {"planet": planet, "delta_arcsec": delta, "tol": tol, "n_orbits": 50}
    for planet in ("Mercury", "Venus", "Earth") for delta in (0.0, 0.0398, 300.0)
    for tol in (1e-12, 1e-10)] + [
    {"planet": "Mercury", "delta_arcsec": 3e4, "tol": 1e-10, "n_orbits": 50},
    {"planet": "Mercury", "delta_arcsec": 5.9e4, "tol": 1e-12, "n_orbits": 3},
    {"planet": "Mercury", "delta_arcsec": 5.975e4, "tol": 1e-10, "n_orbits": 3},
    {"planet": "Mercury", "delta_arcsec": 59783.246490105, "tol": 1e-12, "n_orbits": 3},
]


def this_platform() -> dict:
    return {"python": sys.version, "machine": platform.machine(),
            "system": platform.system()}


@contextmanager
def _pinned_environment():
    """Bundled data, not a QGRAV_DATA_DIR override, and an 80-column
    terminal for argparse's usage line."""
    saved = {name: os.environ.get(name) for name in ("COLUMNS", "QGRAV_DATA_DIR")}
    os.environ["COLUMNS"] = "80"
    os.environ.pop("QGRAV_DATA_DIR", None)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run(argv: list[str]) -> dict:
    """The corpus record of one qgrav invocation."""
    args = [arg.replace("{golden}", str(HERE)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with _pinned_environment(), redirect_stdout(out), redirect_stderr(err):
        try:
            code = qgrav_main(args)
        except SystemExit as exc:
            code = exc.code
    record = {"argv": argv, "exit": code, "stderr": next(iter(err.getvalue().splitlines()), "")}
    stdout = out.getvalue()
    if argv[0] == "orbit":
        data = stdout.encode("utf-8")
        record.update(stdout_sha256=hashlib.sha256(data).hexdigest(),
                      stdout_bytes=len(data))
    else:
        record["stdout"] = stdout
    return record


def measure(case: dict) -> dict:
    """The corpus record of one measured_precession call on a bundled planet."""
    with _pinned_environment():
        planets = {el.name: el for el in load_planets()}
    try:
        result = measured_precession(planets[case["planet"]], case["delta_arcsec"],
                                     n_orbits=case["n_orbits"], tol=case["tol"])
    except QgravError as exc:
        return {**case, "error": f"{type(exc).__name__}: {exc}"}
    return {**case, "per_orbit_rad": result.per_orbit_rad.hex(),
            "per_century_arcsec": result.per_century_arcsec.hex()}


def check() -> int:
    """Replay corpus.json, print each case whose record differs, and return
    1 if any does, else 0."""
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    mismatched = [" ".join(case["argv"]) for case in corpus["cases"] if run(case["argv"]) != case]
    mismatched += ["measured_precession {planet} {delta_arcsec} tol {tol} n {n_orbits}"
                   .format(**case) for case in corpus["precession"]
                   if measure({key: case[key] for key in PRECESSION_CASES[0]}) != case]
    if [case["argv"] for case in corpus["cases"]] != CASES:
        mismatched.append("CASES differ from the corpus's argv list")
    for name in mismatched:
        print(f"mismatch: {name}")
    print(f"{len(mismatched)} mismatches in {len(corpus['cases'])} cases and "
          f"{len(corpus['precession'])} precession cases recorded on {corpus['platform']}; "
          f"this run is on {this_platform()}")
    return 1 if mismatched else 0


def main() -> None:
    corpus = {"platform": this_platform(), "cases": [run(argv) for argv in CASES],
              "precession": [measure(case) for case in PRECESSION_CASES]}
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(CASES)} cases and {len(PRECESSION_CASES)} precession cases "
          f"to {CORPUS}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    main()

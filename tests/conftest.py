import os
import sys
from pathlib import Path

import pytest

from qgrav import ModelBreakdownError, derive_orbit, load_planets, planet_precession

_TESTS = Path(__file__).resolve().parent
# pyproject's pythonpath puts src on this process's sys.path; the few child
# interpreters that the CLI tests start find qgrav through PYTHONPATH.
_SRC = str(_TESTS.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])
# The CLI tests run the command line through the golden corpus's runner,
# regen.invoke, also when tests/golden is not collected.
sys.path.insert(0, str(_TESTS / "golden"))


@pytest.fixture(scope="session")
def planets():
    return {p.name: p for p in load_planets()}


@pytest.fixture(scope="session")
def mercury(planets):
    return planets["Mercury"]


@pytest.fixture(scope="session")
def venus(planets):
    return planets["Venus"]


@pytest.fixture(scope="session")
def earth(planets):
    return planets["Earth"]


@pytest.fixture(scope="session")
def mercury_orbit(mercury):
    return derive_orbit(mercury)


def breakdown_delta(el, rule):
    """The largest delta, in arcsec, that planet_precession admits on el: the
    last float before ModelBreakdownError, by bisection."""
    def admitted(delta):
        try:
            planet_precession(el, delta, rule)
        except ModelBreakdownError:
            return False
        return True

    low, high = 0.0, 1e3
    while admitted(high):
        low, high = high, 2.0 * high
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return low
        low, high = (mid, high) if admitted(mid) else (low, mid)

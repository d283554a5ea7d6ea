import os
from pathlib import Path

import pytest

from qgrav import derive_orbit, load_planets

# pyproject's pythonpath puts src on this process's sys.path; the child
# interpreters that the CLI tests start find qgrav through PYTHONPATH.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])


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

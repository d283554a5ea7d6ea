"""Every recorded qgrav invocation prints the same bytes and exits the same way,
and every recorded measured_precession call returns the same bits.

The corpus and its cases are in regen.py, which rewrites corpus.json.
"""

import json

import pytest

from regen import CASES, CORPUS, PRECESSION_CASES, measure, run, this_platform

_CORPUS = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_holds_every_case():
    assert [case["argv"] for case in _CORPUS["cases"]] == CASES, (
        "CASES changed: rewrite corpus.json with tests/golden/regen.py")


@pytest.mark.parametrize("recorded", _CORPUS["cases"],
                         ids=[" ".join(case["argv"]) for case in _CORPUS["cases"]])
def test_output_matches_corpus(recorded):
    got = run(recorded["argv"])
    assert got == recorded, (
        f"output differs from the corpus recorded on {_CORPUS['platform']}; "
        f"this run is on {this_platform()}")


def test_corpus_holds_every_precession_case():
    recorded = [{key: case[key] for key in PRECESSION_CASES[0]}
                for case in _CORPUS["precession"]]
    assert recorded == PRECESSION_CASES, (
        "PRECESSION_CASES changed: rewrite corpus.json with tests/golden/regen.py")


@pytest.mark.parametrize("recorded", _CORPUS["precession"],
                         ids=["{planet} {delta_arcsec} tol {tol} n {n_orbits}".format(**case)
                              for case in _CORPUS["precession"]])
def test_measured_precession_matches_corpus(recorded):
    case = {key: recorded[key] for key in PRECESSION_CASES[0]}
    assert measure(case) == recorded, (
        f"measured_precession differs from the corpus recorded on {_CORPUS['platform']}; "
        f"this run is on {this_platform()}")

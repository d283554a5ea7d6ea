"""Every recorded qgrav invocation prints the same bytes and exits the same way.

The corpus and its cases are in regen.py, which rewrites corpus.json.
"""

import json

import pytest

from regen import CASES, CORPUS, run, this_platform

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

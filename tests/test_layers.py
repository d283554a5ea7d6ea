"""The package imports strictly downward, and forms each quantity in one place.

Each module of src/qgrav has a rank, and may import only from modules of a
lower rank: a module that needs something from its own rank or above is in
the wrong layer. __init__ and __main__ sit on top and are exempt.

Each one-place rule is a row of HOMES: what a node of the source must match,
the homes where it matches (module.scope, the scope being the top-level def
or class, or <module>) and how often, and the modules or scopes looked at.
A new rule is a new row.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import qgrav

PACKAGE = Path(qgrav.__file__).parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}
RANKS = {
    "errors": 0, "record": 0,
    "bodies": 1,
    "forces": 2,
    "precession": 3,
    "orbit": 4, "calibrate": 4,
    "cli": 5,
}
EXEMPT = {"__init__", "__main__"}
ALL = tuple(TREES)


def homes(match, where=ALL) -> Counter:
    """How many nodes match at each module.scope of the modules, or of the
    module.scope names, in where."""
    found = Counter()
    for stem, tree in TREES.items():
        for top in tree.body:
            home = f"{stem}.{getattr(top, 'name', '<module>')}"
            if stem in where or home in where:
                found.update(home for node in ast.walk(top) if match(node))
    return found


def named(*names):
    """A node that reads, binds, defines or imports one of names."""
    return lambda node: any(getattr(node, field, None) in names
                            for field in ("id", "attr", "name", "asname"))


def calls(*names):
    return lambda node: isinstance(node, ast.Call) and named(*names)(node.func)


def shows(kind, text):
    """A node of kind whose source, as ast.unparse writes it, holds text."""
    return lambda node: isinstance(node, kind) and text in ast.unparse(node)


def _ingests(node):
    """bodies' own readers, or json.load(s) by attribute or by import."""
    return (named("_read_json", "bundled_data_path")(node)
            or isinstance(node, ast.Attribute) and ast.unparse(node) in ("json.load", "json.loads")
            or isinstance(node, ast.ImportFrom) and node.module == "json"
            and any(alias.name in ("load", "loads") for alias in node.names))


def _names_rule(node):
    """Whether node names QuantumRule or a member, bound under any underscores."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return isinstance(name, str) and name.lstrip("_") in {"QuantumRule", "PERIHELION",
                                                          "SEMIMINOR"}


def _reads_the_rule(node):
    """A call of QuantumRule(...), or a comparison or match case naming it or a
    member; attribute reads, such as cli's choices and default, are not."""
    return (isinstance(node, ast.Call) and _names_rule(node.func)
            or isinstance(node, (ast.Compare, ast.MatchValue))
            and any(map(_names_rule, ast.walk(node))))


def _forms_the_well(node):
    """A log or log1p named (W's logarithm), or a sqrt of 1 - 4 x: the root
    of u (1 - q u) = c that gives the circular point and the barrier."""
    if isinstance(node, ast.Call) and ast.unparse(node.func) in ("sqrt", "math.sqrt"):
        arg = node.args[0]
        return (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub)
                and ast.unparse(arg.right).startswith(("4 *", "4.0 *")))
    return named("log", "log1p")(node)


def _writes_stdout(node):
    """stdout named, as sys.stdout or bound from sys, or print without a file."""
    return (named("stdout")(node)
            or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
            and not any(keyword.arg == "file" for keyword in node.keywords))


def _loads(*names):
    return lambda node: isinstance(getattr(node, "ctx", None), ast.Load) and named(*names)(node)


# Nodes whose body may run once per row.
PER_ROW = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
           ast.Lambda)


def _builds_a_dict_per_row(node):
    return isinstance(node, PER_ROW) and any(
        isinstance(sub, (ast.Dict, ast.DictComp)) or calls("dict")(sub) for sub in ast.walk(node))


# decision: (matcher, {home: matches}, modules or scopes looked at)
HOMES = {
    # data files are read in one place
    "ingestion": (_ingests, {"bodies._read_json": 3, "bodies.bundled_data_path": 1,
                             "bodies._load_records": 2}, ALL),
    # the orbit export and the precession measurement share one step driver
    "step-underflow": (shows(ast.Raise, "step size underflow"),
                       {"orbit._adaptive_steps": 1}, ALL),
    "step-factor": (shows(ast.BinOp, "_SAFETY * norm ** (-0.2)"),
                    {"orbit._adaptive_steps": 1}, ALL),
    "step-cap": (shows(ast.Assign, "h = max_step"), {"orbit._adaptive_steps": 1}, ALL),
    "tolerance-range": (shows(ast.Compare, "TOL_MIN <= tol <= TOL_MAX"),
                        {"orbit._check_tol": 1}, ALL),
    # _scale compares with both members
    "rule-readings": (_reads_the_rule, {"precession._scale": 2}, ALL),
    # orbit steps in the frame forces hands it and asks forces whether the
    # start escapes
    "well": (_forms_the_well, {"forces._epsilon": 3, "forces._check_escape": 1,
                               "forces._drift_frame": 1}, ALL),
    "well-helpers": (lambda node: isinstance(node, ast.FunctionDef)
                     and node.name in ("_epsilon", "_check_escape", "_drift_frame"),
                     {"forces._epsilon": 1, "forces._check_escape": 1,
                      "forces._drift_frame": 1}, ALL),
    # forces._epsilon forms eps and applies the rule with no box; only the two
    # row paths pre-test the box, in which the rule always passes, and past it
    # ask planet_precession, the one forward definition
    "breakdown-box": (named("_EPS_BOX", "_X_BOX"), {
        "forces.<module>": 2, "calibrate.<module>": 2, "calibrate.sweep_delta": 2,
        "calibrate.invert_delta": 2}, ALL),
    # only the modules that form a model name eps's former
    "epsilon": (named("_epsilon"), {
        "forces._epsilon": 1, "forces.QuantizedModel": 1, "precession.<module>": 1,
        "precession.orbit_params": 1, "precession.planet_precession": 1, "orbit.<module>": 1,
        "orbit._perihelion_start": 1}, ALL),
    # delta -> q (pi/648000) outside planet_precession only in the sweep's inline rows
    "arcsec-to-rad": (lambda node: isinstance(node, ast.Constant) and node.value == 648000, {
        "bodies.<module>": 1, "bodies.arcsec_to_rad": 1, "calibrate.sweep_delta": 2},
        ALL),
    # the rule's checks in forces name the planet, so no wrapper re-raises
    "breakdown-error": (calls("ModelBreakdownError"), {"forces._epsilon": 1}, ALL),
    # the measurement steps from _perihelion_start's q, c and u0; the export
    # wraps them in a model only because integrate takes one
    "model-builder": (calls("QuantizedModel"), {"orbit._export": 1}, ALL),
    # each command returns its document; main writes and flushes it inside the
    # try its BrokenPipeError handler guards, in batches
    "stdout": (_writes_stdout, {"cli.main": 3}, ALL),
    "batching": (_loads("islice", "_BATCH"), {"cli.main": 2}, ("cli",)),
    # orbit and sweep rows go through _emit_rows' %-templates
    "dict-per-float-row": (_builds_a_dict_per_row, {},
                           ("cli.cmd_orbit", "cli.cmd_sweep", "cli._emit_rows")),
    # From Python 3.12 sum() of floats compensates its rounding, so a sum
    # written with it would print other digits there than on 3.10 and 3.11;
    # the package adds its floats left to right in a loop instead.
    "builtin-sum": (calls("sum"), {}, ALL),
    # _epsilon applies the breakdown rule itself, the measurement steps from
    # plain numbers, no json encoder is driven token by token nor its pieces
    # echoed, and open() takes a path as given
    "retired": (named("_check_bounded", "_binet_constants", "iterencode", "JSONEncoder",
                      "_emit", "_Echo", "Path"), {}, ALL),
}


@pytest.mark.parametrize("decision", HOMES)
def test_each_rule_lives_in_its_homes(decision):
    match, expected, where = HOMES[decision]
    assert homes(match, where) == expected


def _imported_modules(tree: ast.Module) -> set[str]:
    """Names of the qgrav modules a module imports, relatively or absolutely."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("qgrav"):
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x / from qgrav import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qgrav" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_is_ranked_and_imports_downward():
    assert set(TREES) - EXEMPT == set(RANKS)
    upward = [f"{stem} (rank {rank}) imports {imported} "
              f"(rank {RANKS.get(imported, 'unranked')})"
              for stem, rank in RANKS.items()
              for imported in sorted(_imported_modules(TREES[stem]))
              if RANKS.get(imported, rank) >= rank]
    assert upward == []


# Standard-library modules a run does not need: annotations are postponed,
# so typing would serve nothing; open() takes a path as given, so pathlib
# would not either; and the value classes are plain records, so neither
# dataclasses nor inspect, which it imports, is needed.
NOT_AT_START_UP = {"typing", "pathlib", "dataclasses", "inspect"}


def _absolute_imports(node):
    """The modules an import names, unless it is relative."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []


def test_src_imports_only_the_standard_library():
    # __future__ is a standard-library name too. What a run loads is checked
    # by tests/test_cli.py::test_a_run_loads_only_the_standard_library.
    allowed = set(sys.stdlib_module_names) - NOT_AT_START_UP
    assert homes(lambda node: any(name.split(".")[0] not in allowed
                                  for name in _absolute_imports(node))) == {}


# What cli would need to build a model, span an orbit or refuse one itself.
MODEL_WORK = ("integrate", "_perihelion_start", "QuantizedModel", "orbit_params",
              "quantum_from_error", "ModelBreakdownError")


def test_cli_does_no_model_work():
    # cli parses, calls one function per command and formats; orbit spans the
    # export, and the float rows of orbit and sweep have one formatter.
    assert homes(named(*MODEL_WORK), ("cli",)) == {}
    from_orbit = {alias.name for node in ast.walk(TREES["cli"])
                  if isinstance(node, ast.ImportFrom) and node.module == "orbit"
                  for alias in node.names}
    assert from_orbit == {"_export", "TOL_MIN", "TOL_MAX"}
    assert homes(calls("_emit_rows"), ("cli",)) == {"cli.cmd_orbit": 1, "cli.cmd_sweep": 1}
    assert homes(calls("_emit_json", "_emit_csv"), ("cli.cmd_orbit", "cli.cmd_sweep")) == {}

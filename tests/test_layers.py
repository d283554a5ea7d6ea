"""The package imports strictly downward.

Each module of src/qgrav has a rank, and may import only from modules of a
lower rank: a module that needs something from its own rank or above is in
the wrong layer. __init__ and __main__ sit on top and are exempt.

Data files are read in one place: only bodies opens or parses JSON. Steps
are sized in one place: orbit has one step-size controller. The quantum
rule is read in one place: only precession converts or compares it. The
exact orbit's well is formed in one place: only forces names its logarithm
or its quadratic root. The breakdown rule lives in one place,
forces._epsilon, which forms eps and applies the rule, and only the two row
paths, calibrate.sweep_delta and invert_delta, test its box inline; past it
they ask planet_precession, the one forward definition, which alone forms q
from delta outside bodies and the sweep's inline rows. Only
forces constructs a ModelBreakdownError, and cli does no model work: it
parses, calls one function per command and formats. Only orbit._export
builds a QuantizedModel; the measurement steps from plain numbers. The float
rows of `qgrav orbit` and `sweep` have one formatter, cli._emit_rows, and
cli drives no json encoder token by token. Each command returns its
document, and cli.main is the one code that writes to stdout and the one
that batches its writes. Every import, function-local ones too, is
relative, __future__ or a standard-library module other than typing,
pathlib, dataclasses and inspect, and no module names Path: with postponed
annotations typing would serve nothing at run time, open() takes a path as
given, and the value classes are plain records. No module calls the
builtin sum, whose float result changed with Python 3.12.
"""

import ast
import sys
from pathlib import Path

import qgrav

RANKS = {
    "errors": 0, "record": 0,
    "bodies": 1,
    "forces": 2,
    "precession": 3,
    "orbit": 4, "calibrate": 4,
    "cli": 5,
}
EXEMPT = {"__init__", "__main__"}
PACKAGE = Path(qgrav.__file__).parent


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


def test_every_module_is_ranked():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - EXEMPT
    assert modules == set(RANKS)


def test_imports_point_downward():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXEMPT:
            continue
        rank = RANKS[path.stem]
        for imported in _imported_modules(ast.parse(path.read_text(encoding="utf-8"))):
            if RANKS.get(imported, rank) >= rank:
                upward.append(f"{path.stem} (rank {rank}) imports {imported} "
                              f"(rank {RANKS.get(imported, 'unranked')})")
    assert upward == []


INGESTION = {"_read_json", "bundled_data_path"}


def _ingestion_names(tree: ast.Module) -> set[str]:
    """The file readers a module names: bodies' own, or json.load(s)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in INGESTION:
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            if node.attr in INGESTION:
                found.add(node.attr)
            elif (node.attr in ("load", "loads") and isinstance(node.value, ast.Name)
                  and node.value.id == "json"):
                found.add(f"json.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in INGESTION:
                    found.add(alias.name)
                elif node.module == "json" and alias.name in ("load", "loads"):
                    found.add(f"json.{alias.name}")
    return found


def test_only_bodies_reads_data_files():
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "bodies":
            names = _ingestion_names(ast.parse(path.read_text(encoding="utf-8")))
            readers += [f"{path.stem} names {name}" for name in sorted(names)]
    assert readers == []


# The parts of a step-size controller, as ast.unparse writes them.
CONTROLLER = {
    "step underflow raise": (ast.Raise, "step size underflow"),
    "step factor update": (ast.BinOp, "_SAFETY * norm ** (-0.2)"),
    "step cap": (ast.Assign, "h = max_step"),
    "tolerance range check": (ast.Compare, "TOL_MIN <= tol <= TOL_MAX"),
}


def test_orbit_has_one_step_controller():
    # The orbit export and the precession measurement share one step driver;
    # a second copy of any part of it would show here.
    tree = ast.parse((PACKAGE / "orbit.py").read_text(encoding="utf-8"))
    counts = {name: sum(isinstance(node, kind) and text in ast.unparse(node)
                        for node in ast.walk(tree))
              for name, (kind, text) in CONTROLLER.items()}
    assert counts == dict.fromkeys(CONTROLLER, 1)


RULE_NAMES = {"QuantumRule", "PERIHELION", "SEMIMINOR"}


def _names_rule(node: ast.AST) -> bool:
    """Whether node names QuantumRule or a member, bound under any underscores."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return isinstance(name, str) and name.lstrip("_") in RULE_NAMES


def _rule_readings(tree: ast.Module) -> list[str]:
    """Calls of QuantumRule(...) and comparisons or match cases that name
    QuantumRule or a member: the ways to read a rule. Attribute reads, such
    as cli's choices and default, are not readings."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if (isinstance(node, ast.Call) and _names_rule(node.func))
            or (isinstance(node, (ast.Compare, ast.MatchValue))
                and any(map(_names_rule, ast.walk(node))))]


def test_only_precession_reads_the_rule():
    readings = {path.stem: _rule_readings(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(PACKAGE.glob("*.py"))}
    # precession._scale compares with both members; nothing else may read
    assert len(readings.pop("precession")) == 2
    assert {stem: found for stem, found in readings.items() if found} == {}


ROW_COMMANDS = ("cmd_orbit", "cmd_sweep")
# Nodes whose body may run once per row.
PER_ROW = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
           ast.Lambda)


def _called_names(node: ast.AST) -> set[str]:
    return {call.func.id for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


def _builds_dict(node: ast.AST) -> bool:
    return any(isinstance(sub, (ast.Dict, ast.DictComp))
               or (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                   and sub.func.id == "dict")
               for sub in ast.walk(node))


def test_float_rows_have_one_writer():
    # orbit and sweep rows go through _emit_rows' templates, not through the
    # json encoder or csv.writer, and no dict is built per row on the way.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ROW_COMMANDS:
        called = _called_names(functions[name])
        assert "_emit_rows" in called, name
        assert not called & {"_emit", "_emit_json", "_emit_csv"}, name
    per_row = [ast.unparse(loop) for name in (*ROW_COMMANDS, "_emit_rows")
               for loop in ast.walk(functions[name])
               if isinstance(loop, PER_ROW) and _builds_dict(loop)]
    assert per_row == []


def test_only_the_float_rows_stream():
    # table, precess and fit build their document whole; only main writes
    # in batches, and neither a json encoder driven token by token nor the
    # piece streamer and csv echo file that served it remain.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    batching = [getattr(node, "name", None) or ast.unparse(node) for node in tree.body
                if getattr(node, "name", None) != "main"
                and {sub.id for sub in ast.walk(node)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
                & {"islice", "_BATCH"}]
    assert batching == []
    named = {getattr(node, field, None) for node in ast.walk(tree)
             for field in ("id", "attr", "name")}
    assert not named & {"iterencode", "JSONEncoder", "_emit", "_Echo"}


def _stdout_writers(tree: ast.Module) -> set[str]:
    """The top-level statements of a module that name stdout, as sys.stdout
    or bound from sys, or call print without a file."""
    return {getattr(top, "name", None) or ast.unparse(top)
            for top in tree.body for node in ast.walk(top)
            if getattr(node, "attr", None) == "stdout" or getattr(node, "id", None) == "stdout"
            or (isinstance(node, ast.ImportFrom) and node.module == "sys"
                and any(alias.name == "stdout" for alias in node.names))
            or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
                and not any(keyword.arg == "file" for keyword in node.keywords))}


def test_main_is_the_one_stdout_writer():
    # Each command returns its document; main writes and flushes it inside
    # the try its BrokenPipeError handler guards, and no other code in cli
    # touches stdout.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert _stdout_writers(tree) == {"main"}


# The exact orbit's well: W's logarithm, the root sqrt(1 - 4 q c) of
# u (1 - q u) = c, and the helpers that form them.
WELL_HELPERS = {"_epsilon", "_check_escape", "_drift_frame"}


def _well_forms(tree: ast.Module) -> list[str]:
    """The parts of the well a module forms: a log or log1p it names (the
    first integral's potential), a sqrt of 1 - 4 x (the circular point and
    the barrier) and a definition of a well helper."""
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in ("log", "log1p"):
            found.append(name)
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) in ("sqrt", "math.sqrt")
              and isinstance(node.args[0], ast.BinOp) and isinstance(node.args[0].op, ast.Sub)
              and ast.unparse(node.args[0].right).startswith(("4 *", "4.0 *"))):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.FunctionDef) and node.name in WELL_HELPERS:
            found.append(f"def {node.name}")
    return found


def test_only_forces_forms_the_well():
    # orbit steps in the frame forces hands it and asks forces whether the
    # start escapes; no module besides forces forms the potential or its roots.
    forms = {path.stem: _well_forms(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    in_forces = forms.pop("forces")
    assert {stem: found for stem, found in forms.items() if found} == {}
    assert sorted(f for f in in_forces if f.startswith("def ")) == [
        f"def {name}" for name in sorted(WELL_HELPERS)]


BREAKDOWN = {"_EPS_BOX", "_X_BOX"}


def _breakdown_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(scope, name) for each read of the breakdown box, by the top-level
    function or class that makes it; imports are not reads."""
    return {(getattr(top, "name", "<module>"), name)
            for top in tree.body for node in ast.walk(top)
            if isinstance(getattr(node, "ctx", None), ast.Load)
            and (name := getattr(node, "id", None) or getattr(node, "attr", None)) in BREAKDOWN}


def test_only_epsilon_applies_the_breakdown_rule():
    # eps and the rule are formed in forces._epsilon itself, with no helper
    # for the rule; only the two row paths pre-test the box in which the
    # rule always passes.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem for stem, tree in trees.items() if "_check_bounded" in _names(tree)} == set()
    reads = {f"{stem}.{scope}" for stem, tree in trees.items()
             for scope, _ in _breakdown_reads(tree)}
    assert {scope for scope in reads if not scope.startswith("forces.")} == {
        "calibrate.sweep_delta", "calibrate.invert_delta"}


def _constants(tree: ast.Module, value: float) -> set[str]:
    """The top-level statements of a module that hold the number value."""
    return {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == value}


def test_planet_precession_is_the_one_forward_definition():
    # The other analytic paths ask planet_precession what a delta gives and
    # refuses: only the modules that form a model name _epsilon, the delta
    # -> q conversion (pi/648000) is written only in bodies and in the
    # sweep's inline rows, and precession reads no breakdown box.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem for stem, tree in trees.items() if "_epsilon" in _names(tree)} == {
        "forces", "precession", "orbit"}
    assert {f"{stem}.{scope}" for stem, tree in trees.items()
            for scope in _constants(tree, 648000)} == {
        "bodies.<module>", "bodies.arcsec_to_rad", "calibrate.sweep_delta"}
    assert _names(trees["precession"]) & BREAKDOWN == set()


# What cli would need to build a model, span an orbit or refuse one itself.
MODEL_WORK = {"integrate", "_perihelion_start", "QuantizedModel", "orbit_params",
              "quantum_from_error", "ModelBreakdownError"}


def _names(tree: ast.Module) -> set[str]:
    """Every name a module reads, binds, defines or imports."""
    return ({getattr(node, field, None) for node in ast.walk(tree)
             for field in ("id", "attr", "name")}
            | {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names})


def test_cli_does_no_model_work():
    # cli parses and formats; orbit spans the export (orbit._export) and the
    # rule's checks in forces name the planet, so no wrapper re-raises.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(_names(trees["cli"]) & MODEL_WORK) == []
    from_orbit = {alias.name for node in ast.walk(trees["cli"])
                  if isinstance(node, ast.ImportFrom) and node.module == "orbit"
                  for alias in node.names}
    assert from_orbit == {"_export", "TOL_MIN", "TOL_MAX"}
    constructs = {stem for stem, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func).endswith("ModelBreakdownError")}
    assert constructs == {"forces"}


def test_only_the_export_builds_a_model():
    # _perihelion_start returns q, c and u0, and the measurement steps from
    # them; orbit._export wraps them in a model only because integrate takes
    # one, and no helper unpacks a model into the forcing's constants.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    builders = {f"{stem}.{getattr(top, 'name', '<module>')}"
                for stem, tree in trees.items() for top in tree.body
                for node in ast.walk(top) if isinstance(node, ast.Call)
                and ast.unparse(node.func).endswith("QuantizedModel")}
    assert builders == {"orbit._export"}
    assert {stem for stem, tree in trees.items() if "_binet_constants" in _names(tree)} == set()


# Standard-library modules a run does not need: annotations are postponed,
# so typing would serve nothing; open() takes a path as given, so pathlib
# would not either; and the value classes are plain records, so neither
# dataclasses nor inspect, which it imports, is needed.
NOT_AT_START_UP = {"typing", "pathlib", "dataclasses", "inspect"}


def _absolute_imports(tree: ast.Module):
    """The module names of a module's absolute imports, function-local ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_imports_only_the_standard_library():
    # __future__ is a standard-library name too. What a run loads is checked
    # by tests/test_cli.py::test_a_run_loads_only_the_standard_library.
    allowed = set(sys.stdlib_module_names) - NOT_AT_START_UP
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    imports = {f"{stem} imports {name}" for stem, tree in trees.items()
               for name in _absolute_imports(tree) if name.split(".")[0] not in allowed}
    assert imports == set()
    assert {stem for stem, tree in trees.items() if "Path" in _names(tree)} == set()


def test_no_module_calls_the_builtin_sum():
    # From Python 3.12 sum() of floats compensates its rounding, so a sum
    # written with it would print other digits there than on 3.10 and 3.11;
    # the package adds its floats left to right in a loop instead.
    calls = [f"{path.stem}: {ast.unparse(node)}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "sum"]
    assert calls == []

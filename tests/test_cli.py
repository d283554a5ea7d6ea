"""Tests of what qgrav.cli decides, and of nothing else.

cli parses and bounds the flags, maps each error class to its exit code (2
for a rejected flag or data file, 3 for valid input the model cannot
evaluate) with the message on stderr alone, formats the output bytes,
batches the writes, ends quietly on a closed pipe and starts on the
standard library. Each of these is tested here. A contract that a library
function decides, such as what a data file may hold, when the model breaks
down or how the fit meets the float range, is tested once, in the test file
of the module that decides it: tests/test_bodies.py, test_calibrate.py,
test_forces.py, test_precession.py or test_orbit.py. The golden corpus in
tests/golden/ pins the bytes and exit codes of its recorded invocations.

The command line runs in this process through the corpus's runner,
regen.invoke; a child interpreter is started only where the process itself
is under test. This module needs pytest and hypothesis alone.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from regen import _COMMANDS, CORPUS, invoke, run

_RECORDED = {tuple(case["argv"]): case
             for case in json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]}


def run_cli(*args):
    code, stdout, stderr = invoke(list(args))
    return SimpleNamespace(returncode=code, stdout=stdout, stderr=stderr)


def test_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for command in ("table", "precess", "orbit", "fit", "sweep"):
        assert command in proc.stdout


@pytest.mark.parametrize("given, spelled_out", [
    ([], ["--rule", "perihelion", "--format", "text"]),
    (["--format", "csv"], ["--rule", "perihelion", "--format", "csv"]),
    (["--format", "json"], ["--rule", "perihelion", "--format", "json"]),
    (["--rule", "semiminor"], ["--rule", "semiminor", "--format", "text"]),
], ids=["rule-format", "rule-csv", "rule-json", "format-semiminor"])
@pytest.mark.parametrize("command", _COMMANDS, ids=lambda command: command[0])
def test_an_option_left_out_reads_as_its_default(command, given, spelled_out):
    # the corpus records each command with --rule and --format spelled out;
    # left out, they are perihelion and text, to the byte
    recorded = _RECORDED[tuple(command + spelled_out)]
    assert run(command + given) == {**recorded, "argv": command + given}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("deltas, message", [("0.0398,0.03980001", "0.0398 and 0.03980001"),
                                             ("0.01,0.01", "0.01 and 0.01"),
                                             ("0,-0", "0.0 and 0.0")])
def test_table_refuses_deltas_with_one_label(deltas, message, fmt):
    # each pair would print as one column label, and json would keep only one
    # of them; a repeated value, -0 beside 0 included, is no different
    proc = run_cli("table", "--deltas", deltas, "--format", fmt)
    assert proc.returncode == 2, deltas
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "share the column label" in proc.stderr


def test_table_empty_planets(tmp_path):
    empty = tmp_path / "planets.json"
    empty.write_text(json.dumps({"schema_version": 1, "planets": []}))
    proc = run_cli("table", "--planets", str(empty), "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert len(rows) == 1  # header only
    doc = json.loads(run_cli("table", "--planets", str(empty),
                             "--format", "json").stdout)
    assert doc["rows"] == []


ORBIT = ("orbit", "--planet", "mercury", "--delta", "0")
SWEEP = ("sweep", "--planet", "mercury")


@pytest.mark.parametrize("argv, dest, value", [
    ((*ORBIT, "--tol", "1e-14"), "tol", 1e-14), ((*ORBIT, "--tol", "1e-6"), "tol", 1e-6),
    ((*ORBIT, "--orbits", "1"), "orbits", 1), ((*ORBIT, "--orbits", "1000"), "orbits", 1000),
    ((*SWEEP, "--steps", "2"), "steps", 2), ((*SWEEP, "--steps", "100000"), "steps", 100000),
    (("precess", "--planet", "mercury", "--delta", "-0"), "delta", 0.0),
    (("table", "--deltas=-0,0.01"), "deltas", [0.0, 0.01]),
    ((*SWEEP, "--delta-min=-0"), "delta_min", 0.0),
])
def test_number_flags_accept_their_range_ends(argv, dest, value):
    # -0 parses to 0.0, so it prints as 0 in every format
    from qgrav.cli import build_parser
    parsed = getattr(build_parser().parse_args(argv), dest)
    assert repr(parsed) == repr(value)  # repr tells 0.0 from -0.0


@pytest.mark.parametrize("argv, fragment", [
    *[(argv, "error: argument") for argv in [
        (*ORBIT[:-1], "nan"), (*ORBIT[:-1], "inf"), (*ORBIT[:-1], "1e400"),
        (*SWEEP, "--delta-max", "nan"), (*ORBIT, "--tol", "inf"),
        (*ORBIT, "--orbits", "1.5"), (*SWEEP, "--steps", "2.0"),
        (*ORBIT, "--orbits", "9" * 400), (*ORBIT, "--orbits", "-" + "9" * 400),
        ("table", "--deltas", "0.01,abc"), ("table", "--deltas", "0.01,1e400"),
        ("table", "--format", "yaml"), ("nonsense",),
        ("precess", "--planet", "mercury", "--delta", "-1"), ("table", "--deltas", "a,b"),
        (*ORBIT, "--tol", "1e-3"), (*ORBIT, "--tol", "1e-15"), (*ORBIT, "--tol", "nan"),
        (*ORBIT, "--orbits", "0"), (*ORBIT, "--orbits", "1001"),
        (*SWEEP, "--steps", "1"), (*SWEEP, "--steps", "100001"),
        ("table", "--deltas", ",".join(str(i / 1000) for i in range(101))),
    ]],
    *[((*SWEEP, "--delta-min", "0.05", "--delta-max", delta_max),
       "sweep needs --delta-min < --delta-max") for delta_max in ("0.05", "0.01")],
])
def test_unreadable_or_unbounded_numbers_are_usage_errors(argv, fragment):
    # a 400-digit int fails the range test before isfinite, which would
    # raise OverflowError on it
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert fragment in proc.stderr


def test_table_accepts_the_most_deltas():
    proc = run_cli("table", "--deltas", ",".join(str(i / 1000) for i in range(100)),
                   "--format", "csv")
    assert proc.returncode == 0
    assert len(next(csv.reader(io.StringIO(proc.stdout)))) == 4 + 100


# Run in a python -S child: without site nothing is loaded before qgrav, so
# the check needs no snapshot, and numpy, which other test modules load, is
# blocked. After each step neither numpy nor any of the standard-library
# modules that tests/test_layers.py keeps out of src is loaded.
_START_UP_RUN = """
import sys
sys.modules["numpy"] = None
NOT_LOADED = ("numpy", "typing", "pathlib", "dataclasses", "inspect")


def check(step):
    loaded = [name for name in NOT_LOADED if sys.modules.get(name) is not None]
    assert loaded == [], (loaded, step)


import contextlib, io
from array import array
check("python -S")
import qgrav
check("import qgrav")
assert "qgrav.orbit" in sys.modules
import qgrav.cli
check("import qgrav.cli")

for name in qgrav.__all__:
    getattr(qgrav, name)
assert qgrav.integrate is qgrav.orbit.integrate
namespace = {}
exec("from qgrav import *", namespace)
assert set(qgrav.__all__) <= set(namespace)
assert namespace["measured_precession"] is qgrav.orbit.measured_precession
try:
    qgrav.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute resolved")
check("qgrav's names")

export = ["orbit", "--planet", "venus", "--delta", "0.0398", "--orbits", "2"]
for argv in (export, export + ["--tol", "1e-10"],
             ["precess", "--planet", "mercury", "--delta", "0.0398"],
             ["table"], ["fit"], ["sweep", "--planet", "venus", "--steps", "50"]):
    for fmt in ("text", "csv", "json"):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert qgrav.cli.main(argv + ["--format", fmt]) == 0, (argv, fmt)
        assert out.getvalue(), (argv, fmt)
        check((argv, fmt))

orbit = qgrav.derive_orbit(qgrav.planet_by_name(qgrav.load_planets(), "mercury"))
model = qgrav.QuantizedModel(quantum=0.0, mu=orbit.mu, h=orbit.h)
traj = qgrav.integrate(model, 1.0 / orbit.r_p, 0.0, 13.0)
for field in (traj.theta, traj.u):
    assert type(field) is array and field.typecode == "d"
check("integrate")
for el in qgrav.load_planets():
    for delta in (0.0, 0.0398):
        result = qgrav.measured_precession(el, delta, n_orbits=2)
        assert type(result.per_orbit_rad) is float
        assert type(result.per_century_arcsec) is float
check("measured_precession")
"""


def test_a_run_loads_only_the_standard_library():
    proc = subprocess.run([sys.executable, "-S", "-c", _START_UP_RUN],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("orbits", [1, 3])
@pytest.mark.parametrize("delta", [0.0, 0.0398, 300.0, 3e4])  # 3e4: x = 0.92 by semiminor
@pytest.mark.parametrize("rule", ["perihelion", "semiminor"])
@pytest.mark.parametrize("name", ["Mercury", "Venus", "Earth"])
def test_orbit_export_matches_integrate(capsys, name, rule, delta, orbits):
    # The export is the public recipe: quantum_from_error, x from
    # orbit_params, theta_max = n 2 pi/x + 0.5, integrate; bit for bit. The
    # row writer's property and the corpus's orbit records pin the bytes.
    from qgrav import (QuantizedModel, QuantumRule, cli, derive_orbit, integrate,
                       load_planets, orbit_params, planet_by_name, quantum_from_error)
    orbit = derive_orbit(planet_by_name(load_planets(), name))
    quantum = quantum_from_error(delta, orbit, QuantumRule(rule))
    _, freq_ratio = orbit_params(quantum, orbit)
    model = QuantizedModel(quantum=quantum, mu=orbit.mu, h=orbit.h)
    theta_max = orbits * (2.0 * math.pi / freq_ratio) + 0.5
    traj = integrate(model, 1.0 / orbit.r_p, 0.0, theta_max, tol=1e-12)
    assert cli.main(["orbit", "--planet", name.lower(), "--delta", repr(delta), "--rule", rule,
                     "--orbits", str(orbits), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert ([(row["theta_rad"], row["u_per_m"], row["r_m"]) for row in doc["rows"]]
            == [(t, u, 1.0 / u) for t, u in zip(traj.theta, traj.u)])
    assert ((doc["meta"]["steps_accepted"], doc["meta"]["steps_rejected"])
            == (traj.n_accepted, traj.n_rejected))


# The two row shapes _emit_rows writes, as cmd_orbit and cmd_sweep pass
# them: keys, text head, text row template, and the f-string each text
# row was written with before the templates.
ROW_SHAPES = {
    3: (("theta_rad", "u_per_m", "r_m"), "head\n", "%18.9f  %24.15e  %24.15e\n",
        lambda t, u, r: f"{t:18.9f}  {u:24.15e}  {r:24.15e}\n"),
    2: (("delta_arcsec", "per_century_arcsec"), "head\n", "%14.5f  %16.2f\n",
        lambda d, v: f"{d:14.5f}  {v:16.2f}\n"),
}
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# where repr changes notation or precision, and the range's ends
EDGES = (-0.0, 5e-324, 1.7976931348623157e308, 1e16, 9999999999999998.0,
         1e-5, 0.0001, -1e-5, 2.2250738585072014e-308)


def _emitted(fmt, meta, width, rows):
    from qgrav import cli
    keys, head, row, _ = ROW_SHAPES[width]
    return "".join(cli._emit_rows(SimpleNamespace(command="orbit", format=fmt), meta, keys,
                                  head, row, iter(rows), 0.0))


def _windows(width):
    return [EDGES[i:i + width] for i in range(len(EDGES) - width + 1)]


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(sorted(ROW_SHAPES)).flatmap(lambda width: st.tuples(
           st.just(width), st.lists(st.tuples(*[FINITE] * width), min_size=1, max_size=8))),
       meta=st.dictionaries(st.text(max_size=5), FINITE | st.text(max_size=5) | st.integers(),
                            max_size=3))
@example(case=(3, _windows(3)), meta={"command": "orbit"})
@example(case=(2, _windows(2)), meta={})
def test_row_writer_matches_the_encoders(case, meta):
    width, rows = case
    keys, head, _, text_row = ROW_SHAPES[width]
    doc = {"meta": meta, "rows": [dict(zip(keys, r)) for r in rows]}
    assert _emitted("json", meta, width, rows) == json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    writer.writerows([repr(x) for x in r] for r in rows)
    assert _emitted("csv", meta, width, rows) == buf.getvalue()
    assert _emitted("text", meta, width, rows) == head + "".join(text_row(*r) for r in rows)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_orbit_refuses_a_radius_beyond_the_float_range(monkeypatch, capsys, fmt):
    # 1 / 5e-324 is inf: json would write Infinity, csv and text inf
    from qgrav import Trajectory, cli, orbit
    monkeypatch.setattr(orbit, "integrate", lambda *args: Trajectory(
        theta=[0.0, 1.0], u=[1.0, 5e-324], n_accepted=1, n_rejected=0))
    code = cli.main(["orbit", "--planet", "mercury", "--delta", "0.0398", "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("qgrav: error: ")
    assert "Infinity" not in err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_sweep_refuses_a_precession_beyond_the_float_range(monkeypatch, capsys, fmt):
    from qgrav import cli
    monkeypatch.setattr(cli, "sweep_delta", lambda *args: [(0.01, 1.0), (0.05, math.inf)])
    code = cli.main(["sweep", "--planet", "mercury", "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("qgrav: error: ")


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_orbit_export_writes_in_batches(monkeypatch, fmt):
    # 25 orbits are about 6.6k samples: one write per json token, csv row
    # or text line would be 7k to 106k writes.
    from qgrav import cli
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["orbit", "--planet", "mercury", "--delta", "0.0398",
                     "--orbits", "25", "--format", fmt]) == 0
    assert out.getvalue().count("\n") > 6000
    assert out.writes <= 200


def _planets_file(path, records):
    path.write_text(json.dumps({"schema_version": 1, "planets": records}))
    return str(path)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", ["table", "precess", "fit"])
def test_documents_are_written_once(monkeypatch, tmp_path, command, fmt):
    # 30 planets by 20 deltas make some 3.5k json tokens: streamed 1024 to
    # a write, the json table would take four writes.
    from qgrav import GM_SUN, cli
    from qgrav.bodies import DAY_S
    records = []
    for i in range(30):
        a = 5.79092e10 * (1.0 + i / 10.0)
        records.append({"name": f"P{i:02d}", "a_m": a, "e": 0.2,
                        "tau_days": 2.0 * math.pi * math.sqrt(a ** 3 / GM_SUN) / DAY_S})
    planets = _planets_file(tmp_path / "planets.json", records)
    deltas = ",".join(f"{0.01 * k:g}" for k in range(1, 21))
    argv = {"table": ["table", "--planets", planets, "--deltas", deltas],
            "precess": ["precess", "--planet", "mercury", "--delta", "0.0398"],
            "fit": ["fit"]}[command]
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main([*argv, "--format", fmt]) == 0
    assert out.writes == 1


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_orbit_refuses_an_escaping_orbit(monkeypatch, capsys, tmp_path, fmt):
    # h^2/(mu r_p) = 5: the perihelion speed is above escape speed, so the
    # orbit never comes back; it is refused before integrate is called.
    from qgrav import cli, orbit
    monkeypatch.setattr(orbit, "integrate", None)
    planets = _planets_file(tmp_path / "planets.json", [
        {"name": "Fast", "a_m": 1.495978707e11, "e": 0.5, "tau_days": 200.0}])
    code = cli.main(["orbit", "--planets", planets, "--planet", "fast", "--delta", "0.0398",
                     "--orbits", "2", "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("qgrav: error: Fast: the exact orbit from perihelion escapes")
    assert "inverse radius" not in err


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),                                    # SystemExit(0)
    (["table"], 0),                                     # "±" through a real stdout
    (["precess", "--planet", "pluto", "--delta", "0.0398"], 2),
    (["orbit", "--planet", "mercury", "--delta", "0.0398", "--tol", "1e-3"], 2),
    (["sweep", "--planet", "venus", "--delta-min", "1", "--delta-max", "0.5"], 2),
    (["precess", "--planet", "mercury", "--delta", "1e5", "--format", "json"], 3),
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_the_process_exits_as_main_returns(monkeypatch, argv, code):
    # python -m qgrav exits with main's return value or argparse's
    # SystemExit code, and its streams carry the bytes invoke captures.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("QGRAV_DATA_DIR", raising=False)
    proc = subprocess.run([sys.executable, "-m", "qgrav", *argv], capture_output=True,
                          encoding="utf-8", timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == invoke(argv)
    assert proc.returncode == code


_EXPORT_200 = ["orbit", "--planet", "mercury", "--delta", "0.0398", "--orbits", "200"]
_UNBUFFERED = pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])

# A closed pipe is no error, whether the child's stdout is buffered or not
# (PYTHONUNBUFFERED). A buffered document meets the closed pipe only when it
# is flushed, which main does inside its handler; the flush at exit then
# goes to /dev/null.


@_UNBUFFERED
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_pipe_closed_mid_export_is_not_an_error(fmt, unbuffered):
    # The reader stops after the first line of a 200-orbit export.
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen([sys.executable, "-m", "qgrav", *_EXPORT_200, "--format", fmt],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().endswith(b"\n")
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, stderr) == (0, b"")


@_UNBUFFERED
@pytest.mark.parametrize("argv", [["precess", "--planet", "mercury", "--delta", "0.0398"],
                                  ["table"]], ids=["precess", "table"])
def test_a_pipe_closed_before_a_document_is_not_an_error(argv, unbuffered):
    # The reader closed the pipe before a small document was written.
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qgrav", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_console_script_entrypoint():
    argv = ["precess", "--planet", "earth", "--delta", "0.01"]
    try:
        proc = subprocess.run(["qgrav", *argv], capture_output=True, text=True)
    except FileNotFoundError:
        # Not installed: run the [project.scripts] target as its wrapper would.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qgrav"]
        module, function = target.split(":")
        wrapper = (f"import sys; from {module} import {function}; "
                   f"sys.argv[0] = 'qgrav'; sys.exit({function}())")
        proc = subprocess.run([sys.executable, "-c", wrapper, *argv],
                              capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "3.09 arcsec/century" in proc.stdout

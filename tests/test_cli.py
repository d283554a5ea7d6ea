import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from regen import invoke


def run_cli(*args):
    # main in this process, through the golden corpus's runner; a child
    # interpreter is started only where the process itself is under test
    code, stdout, stderr = invoke(list(args))
    return SimpleNamespace(returncode=code, stdout=stdout, stderr=stderr)


def test_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for command in ("table", "precess", "orbit", "fit", "sweep"):
        assert command in proc.stdout


def test_table_text_default():
    proc = run_cli("table")
    assert proc.returncode == 0
    out = proc.stdout
    assert "43.11 ± 0.45" in out
    assert "42.98" in out      # GR baseline, two decimals
    assert "10.82" in out
    assert "43.06" in out
    assert "54.10" in out
    assert "delta=0.01" in out and "delta=0.0398" in out and "delta=0.05" in out
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines[1].startswith("Mercury")
    assert lines[2].startswith("Venus")
    assert lines[3].startswith("Earth")


def test_table_json_full_precision():
    proc = run_cli("table", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["meta"]["rule"] == "perihelion"
    assert doc["meta"]["deltas"] == [0.01, 0.0398, 0.05]
    mercury = doc["rows"][0]
    assert mercury["planet"] == "Mercury"
    assert mercury["observation"] == {"value_arcsec": 43.11, "sigma_arcsec": 0.45}
    assert mercury["model_arcsec"]["0.0398"] == pytest.approx(43.06025049435802, rel=1e-13)
    assert mercury["gr_baseline_arcsec"] == pytest.approx(42.980499002312456, rel=1e-13)


def test_table_csv_parses():
    proc = run_cli("table", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["planet", "observation_arcsec", "observation_sigma_arcsec",
                       "gr_baseline_arcsec", "delta_0.01", "delta_0.0398", "delta_0.05"]
    assert len(rows) == 4
    assert float(rows[1][5]) == pytest.approx(43.06025049435802, rel=1e-13)


def test_table_zero_delta():
    proc = run_cli("table", "--deltas", "0")
    assert proc.returncode == 0
    assert "0.00" in proc.stdout
    doc = json.loads(run_cli("table", "--deltas", "0", "--format", "json").stdout)
    assert all(row["model_arcsec"]["0"] == 0.0 for row in doc["rows"])


def test_table_deltas_sorted_ascending():
    doc = json.loads(run_cli("table", "--deltas", "0.05,0.01,0.03",
                             "--format", "json").stdout)
    assert doc["meta"]["deltas"] == [0.01, 0.03, 0.05]


def test_table_refuses_deltas_with_one_label():
    # each pair would print as one column label, and json would keep only one
    # of them; a repeated value, -0 beside 0 included, is no different
    cases = [("0.0398,0.03980001", "0.0398 and 0.03980001"),
             ("0.01,0.01", "0.01 and 0.01"),
             ("0,-0", "0.0 and 0.0")]
    for deltas, message in cases:
        for fmt in ("text", "csv", "json"):
            proc = run_cli("table", "--deltas", deltas, "--format", fmt)
            assert proc.returncode == 2, deltas
            assert proc.stdout == ""
            assert message in proc.stderr
            assert "share the column label" in proc.stderr


def test_negative_zero_delta_prints_as_zero():
    cases = [(("precess", "--planet", "mercury"), "--delta=-0", "--delta=0"),
             (("table",), "--deltas=-0", "--deltas=0"),
             (("table",), "--deltas=-0,0.05", "--deltas=0,0.05"),
             (("sweep", "--planet", "mercury", "--steps", "2"),
              "--delta-min=-0", "--delta-min=0")]
    for argv, negative, zero in cases:
        for fmt in ("text", "csv", "json"):
            proc = run_cli(*argv, negative, "--format", fmt)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == run_cli(*argv, zero, "--format", fmt).stdout
            assert "-0" not in proc.stdout


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


def test_precess_text():
    proc = run_cli("precess", "--planet", "mercury", "--delta", "0.0398")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "43.06 arcsec/century"


def test_precess_json():
    proc = run_cli("precess", "--planet", "mercury", "--delta", "0.0398",
                   "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["per_century_arcsec"] == pytest.approx(43.06025049435802, rel=1e-13)
    assert doc["provenance"] == "analytic"
    assert doc["meta"]["planet"] == "Mercury"


def test_precess_semiminor_rule():
    proc = run_cli("precess", "--planet", "mercury", "--delta", "0.0398",
                   "--rule", "semiminor", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["per_century_arcsec"] == pytest.approx(53.048423595156905, rel=1e-13)


def test_idempotent_machine_output():
    for fmt in ("json", "csv"):
        first = run_cli("table", "--format", fmt)
        second = run_cli("table", "--format", fmt)
        assert first.stdout == second.stdout
        assert first.stdout and first.returncode == second.returncode == 0


def test_orbit_csv_export():
    proc = run_cli("orbit", "--planet", "mercury", "--delta", "0", "--orbits", "3",
                   "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["theta_rad", "u_per_m", "r_m"]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    theta, u, r = data[:, 0], data[:, 1], data[:, 2]
    assert np.all(np.diff(theta) > 0)
    assert np.max(np.diff(theta)) < math.pi / 8
    assert np.allclose(r, 1.0 / u, rtol=1e-12)
    assert theta[0] == 0.0
    # the exported Newtonian trajectory closes: the perihelia, at the chord
    # zeros of du across its + to - crossings, advance < 1e-9 rad
    du = np.gradient(u, theta)
    i = np.flatnonzero((du[:-1] > 0.0) & (du[1:] <= 0.0))
    angles = theta[i] + du[i] / (du[i] - du[i + 1]) * (theta[i + 1] - theta[i])
    assert len(angles) >= 2
    assert np.max(np.abs(np.diff(angles) - 2.0 * math.pi)) < 1e-9


def test_orbit_json_metadata():
    proc = run_cli("orbit", "--planet", "mercury", "--delta", "0.0398",
                   "--orbits", "2", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["meta"]["steps_accepted"] > 0
    assert doc["meta"]["tol"] == 1e-12
    assert doc["rows"][0]["theta_rad"] == 0.0
    assert doc["rows"][0]["r_m"] == pytest.approx(46001291246.652, rel=1e-12)


def test_fit_text():
    proc = run_cli("fit")
    assert proc.returncode == 0
    assert "delta* = 0.03953" in proc.stdout
    assert "Mercury" in proc.stdout and "Venus" in proc.stdout and "Earth" in proc.stdout


def test_fit_json():
    doc = json.loads(run_cli("fit", "--format", "json").stdout)
    assert doc["delta_star_arcsec"] == pytest.approx(0.03953376168385846, rel=1e-10)
    assert doc["delta_sigma_arcsec"] == pytest.approx(0.00041316949764523406, rel=1e-10)
    rows = {row["planet"]: row for row in doc["rows"]}
    assert rows["Venus"]["residual_arcsec"] == pytest.approx(-11.652590742004177, abs=1e-8)


def test_fit_csv():
    proc = run_cli("fit", "--format", "csv")
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0][0] == "planet"
    assert len(rows) == 4
    assert float(rows[1][5]) == pytest.approx(0.03953376168385846, rel=1e-10)


def test_sweep_csv():
    proc = run_cli("sweep", "--planet", "mercury", "--delta-min", "0.01",
                   "--delta-max", "0.05", "--steps", "3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["delta_arcsec", "per_century_arcsec"]
    values = [(float(d), float(v)) for d, v in rows[1:]]
    assert [d for d, _ in values] == [0.01, 0.03, 0.05]
    assert values[0][1] == pytest.approx(10.819157443300954, rel=1e-12)
    assert values[2][1] == pytest.approx(54.09579374245728, rel=1e-12)
    assert values[0][1] < values[1][1] < values[2][1]


def test_unknown_planet_is_usage_error():
    proc = run_cli("precess", "--planet", "pluto", "--delta", "0.01")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "pluto" in proc.stderr


def test_model_breakdown_exit_code(tmp_path):
    proc = run_cli("precess", "--planet", "mercury", "--delta", "1e6")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "epsilon" in proc.stderr
    # The message names the planet that broke down: Venus, the least
    # eccentric, breaks first in a table, and a fit to an observation no
    # small quantum explains breaks on that planet.
    path = tmp_path / "observations.json"
    path.write_text(json.dumps({"observations": [
        {"planet": "Mercury", "value_arcsec": 1e9, "sigma_arcsec": 1.0}]}))
    for proc, planet in [(run_cli("table", "--deltas", "5.9e4"), "Venus"),
                         (run_cli("fit", "--observations", str(path)), "Mercury")]:
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"qgrav: error: {planet}: quantum ")


def test_orbit_breakdown_exit_code():
    # epsilon = 0.40 < 1, but the exact orbit from perihelion falls into
    # the quantum: refused before integrating, not a step-size underflow
    proc = run_cli("orbit", "--planet", "mercury", "--delta", "1e5")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "exact orbit from perihelion is unbounded" in proc.stderr
    assert "underflow" not in proc.stderr


@pytest.mark.parametrize("delta, code", [("5.9e4", 0), ("6e4", 3), ("1e5", 3)])
def test_breakdown_exit_code_agrees_across_commands(tmp_path, delta, code):
    # One breakdown rule: the analytic commands refuse a quantum exactly
    # where the integrator does (epsilon = 0.237, 0.241, 0.40 for Mercury).
    # A Mercury-only file keeps table from reaching Venus, which breaks
    # down earlier.
    path = tmp_path / "planets.json"
    path.write_text(json.dumps({"schema_version": 1, "planets": [
        {"name": "Mercury", "a_m": 5.79092e10, "e": 0.20563069, "tau_days": 87.96926}]}))
    planets = ("--planets", str(path))
    procs = [run_cli("precess", *planets, "--planet", "mercury", "--delta", delta),
             run_cli("table", *planets, "--deltas", delta),
             run_cli("sweep", *planets, "--planet", "mercury", "--delta-max", delta,
                     "--steps", "2"),
             run_cli("orbit", *planets, "--planet", "mercury", "--delta", delta,
                     "--orbits", "1", "--tol", "1e-8")]
    assert [proc.returncode for proc in procs] == [code] * 4
    if code == 3:
        assert all(proc.stdout == "" for proc in procs)
        assert "exact orbit from perihelion is unbounded" in procs[0].stderr
        assert procs[0].stderr.startswith("qgrav: error: Mercury: ")
        assert all(proc.stderr == procs[0].stderr for proc in procs)


def test_bad_flag_values_are_usage_errors():
    assert run_cli("table", "--format", "yaml").returncode == 2
    assert run_cli("precess", "--planet", "mercury", "--delta", "-1").returncode == 2
    assert run_cli("table", "--deltas", "a,b").returncode == 2
    assert run_cli("nonsense").returncode == 2
    orbit = ("orbit", "--planet", "mercury", "--delta", "0")
    sweep = ("sweep", "--planet", "mercury")
    for argv in [(*orbit, "--tol", "1e-3"), (*orbit, "--tol", "1e-15"),
                 (*orbit, "--tol", "nan"), (*orbit, "--orbits", "0"),
                 (*orbit, "--orbits", "1001"), (*sweep, "--steps", "1"),
                 (*sweep, "--steps", "100001"),
                 (*sweep, "--delta-min", "0.05", "--delta-max", "0.05"),
                 (*sweep, "--delta-min", "0.05", "--delta-max", "0.01"),
                 ("table", "--deltas", ",".join(str(i / 1000) for i in range(101)))]:
        proc = run_cli(*argv)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stdout == ""


ORBIT = ("orbit", "--planet", "mercury", "--delta", "0")
SWEEP = ("sweep", "--planet", "mercury")


@pytest.mark.parametrize("argv, dest, value", [
    ((*ORBIT, "--tol", "1e-14"), "tol", 1e-14), ((*ORBIT, "--tol", "1e-6"), "tol", 1e-6),
    ((*ORBIT, "--orbits", "1"), "orbits", 1), ((*ORBIT, "--orbits", "1000"), "orbits", 1000),
    ((*SWEEP, "--steps", "2"), "steps", 2), ((*SWEEP, "--steps", "100000"), "steps", 100000),
    (("precess", "--planet", "mercury", "--delta", "-0"), "delta", 0.0),
    (("table", "--deltas=-0,0.01"), "deltas", [0.0, 0.01]),
])
def test_number_flags_accept_their_range_ends(argv, dest, value):
    from qgrav.cli import build_parser
    parsed = getattr(build_parser().parse_args(argv), dest)
    assert repr(parsed) == repr(value)  # repr tells 0.0 from -0.0


@pytest.mark.parametrize("argv", [
    (*ORBIT[:-1], "nan"), (*ORBIT[:-1], "inf"), (*ORBIT[:-1], "1e400"),
    (*SWEEP, "--delta-max", "nan"), (*ORBIT, "--tol", "inf"),
    (*ORBIT, "--orbits", "1.5"), (*SWEEP, "--steps", "2.0"),
    (*ORBIT, "--orbits", "9" * 400), (*ORBIT, "--orbits", "-" + "9" * 400),
    ("table", "--deltas", "0.01,abc"), ("table", "--deltas", "0.01,1e400"),
])
def test_unreadable_or_unbounded_numbers_are_usage_errors(capsys, argv):
    # a 400-digit int fails the range test before isfinite, which would
    # raise OverflowError on it
    from qgrav.cli import build_parser
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: argument" in err


def test_table_accepts_the_most_deltas():
    proc = run_cli("table", "--deltas", ",".join(str(i / 1000) for i in range(100)),
                   "--format", "csv")
    assert proc.returncode == 0
    assert len(next(csv.reader(io.StringIO(proc.stdout)))) == 4 + 100


def test_bad_planets_file_is_usage_error(tmp_path):
    bad = tmp_path / "planets.json"
    bad.write_text("{not json")
    proc = run_cli("table", "--planets", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == ""
    record = {"name": "X", "a_m": 1e11, "e": 0.1, "tau_days": 100.0}
    # the last three are valid elements whose orbit over- or underflows,
    # which would otherwise crash, exit 3 on a nan epsilon, or print nan
    for records in ([{**record, "a_m": True}], [record, {**record, "name": "x"}],
                    [{**record, "name": "X "}], [{**record, "a_m": 1e-90}],
                    [{**record, "a_m": 1e300}], [{**record, "tau_days": 1e-320}]):
        bad.write_text(json.dumps({"schema_version": 1, "planets": records}))
        proc = run_cli("table", "--planets", str(bad))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
    # files that fail below the schema: a directory, bytes that are not
    # UTF-8, nesting past the recursion limit, an integer past the digit
    # limit, and an integer past the float range
    bad.write_bytes(b'{"schema_version": 1, "planets": [{"name": "\xff"}]}')
    huge = ('{"schema_version": 1, "planets": '
            '[{"name": "X", "a_m": 1%s, "e": 0.1, "tau_days": 100.0}]}')
    for path, text in ((tmp_path, None), (bad, None), (bad, "[" * 100_000),
                       (bad, huge % ("0" * 5000)), (bad, huge % ("0" * 400))):
        if text is not None:
            bad.write_text(text)
        proc = run_cli("table", "--planets", str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
    # the same holds for an observed value past the float range
    obs = tmp_path / "observations.json"
    obs.write_text('{"observations": [{"planet": "Mercury", "value_arcsec": 1%s, '
                   '"sigma_arcsec": 0.45}]}' % ("0" * 400))
    proc = run_cli("fit", "--observations", str(obs))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_duplicate_observations_are_usage_error(tmp_path):
    # Results are keyed by planet, so a second Mercury row would be merged away.
    path = tmp_path / "observations.json"
    path.write_text(json.dumps({"observations": [
        {"planet": "Mercury", "value_arcsec": 43.11, "sigma_arcsec": 0.45},
        {"planet": "Mercury", "value_arcsec": 42.0, "sigma_arcsec": 0.9}]}))
    proc = run_cli("fit", "--observations", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "duplicate observation 'Mercury'" in proc.stderr


def test_observation_sigma_out_of_range_is_usage_error(tmp_path):
    # sigma^2 underflowed to 0 (a ZeroDivisionError) or overflowed to inf
    # (every weight 0), or the weight 1/sigma^2 overflowed (a nan fit)
    path = tmp_path / "observations.json"
    # 10**200 is an int, whose exact square is past the float range
    for sigma in (1e-200, 1e200, 1e-160, 10**200):
        path.write_text(json.dumps({"observations": [
            {"planet": "Mercury", "value_arcsec": 43.11, "sigma_arcsec": sigma}]}))
        proc = run_cli("fit", "--observations", str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "sigma^2" in proc.stderr


@pytest.mark.parametrize("sigma", [1e-152, 1e-154])
def test_fit_near_the_largest_weight(tmp_path, sigma):
    # 1/sigma^2 is finite, but w * s * s alone would overflow
    def fit(sigma):
        path = tmp_path / "observations.json"
        path.write_text(json.dumps({"observations": [
            {"planet": "Mercury", "value_arcsec": 43.11, "sigma_arcsec": sigma}]}))
        proc = run_cli("fit", "--observations", str(path), "--format", "json")
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)
    doc, unit = fit(sigma), fit(1.0)
    assert doc["delta_star_arcsec"] == pytest.approx(unit["delta_star_arcsec"], rel=1e-15)
    assert doc["delta_sigma_arcsec"] == pytest.approx(sigma * unit["delta_sigma_arcsec"],
                                                      rel=1e-15)


def test_fit_chi2_beyond_the_float_range(tmp_path):
    # Residuals of about 1e158 sigma: chi2 has no float, and inf would
    # not be JSON.
    path = tmp_path / "observations.json"
    path.write_text(json.dumps({"observations": [
        {"planet": "Mercury", "value_arcsec": 43.11, "sigma_arcsec": 1e-154},
        {"planet": "Venus", "value_arcsec": 8.4, "sigma_arcsec": 1e-154}]}))
    proc = run_cli("fit", "--observations", str(path), "--format", "json")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("qgrav: error: chi2 exceeds the float range")


@pytest.mark.parametrize("observations", [
    [("Mercury", 1e306)],                       # delta_star is inf
    [("Mercury", 1e306), ("Venus", -1e308)],    # inf - inf: delta_star is nan
])
def test_fit_delta_beyond_the_float_range(tmp_path, observations):
    # the weighted sums overflow, and the fit must say so rather than blame
    # planet_precession for a delta the user never gave
    path = tmp_path / "observations.json"
    path.write_text(json.dumps({"observations": [
        {"planet": planet, "value_arcsec": value, "sigma_arcsec": 1.0}
        for planet, value in observations]}))
    proc = run_cli("fit", "--observations", str(path), "--format", "json")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("qgrav: error: the fitted delta exceeds the float range")


def test_fit_delta_below_the_float_range(tmp_path):
    # the slope of so distant a planet squared, times its weight, underflows
    # to 0, and the fit must say so rather than divide by it
    planets = tmp_path / "planets.json"
    planets.write_text(json.dumps({"schema_version": 1, "planets": [
        {"name": "Far", "a_m": 1e150, "e": 0.0, "tau_days": 6e141}]}))
    observations = tmp_path / "observations.json"
    observations.write_text(json.dumps({"observations": [
        {"planet": "Far", "value_arcsec": 1.0, "sigma_arcsec": 1.0}]}))
    proc = run_cli("fit", "--planets", str(planets), "--observations", str(observations))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("qgrav: error: the fitted delta is undetermined: the "
                                  "weighted squared slopes underflow")


def test_fit_a_slope_beyond_the_float_range(tmp_path):
    # the slope of so near a planet squared overflows at weight 1, and the
    # fit must scale it rather than print delta* = 0 +- 0
    planets = tmp_path / "planets.json"
    planets.write_text(json.dumps({"schema_version": 1, "planets": [
        {"name": "Tiny", "a_m": 1e-150, "e": 0.0, "tau_days": 1e-300}]}))
    observations = tmp_path / "observations.json"
    observations.write_text(json.dumps({"observations": [
        {"planet": "Tiny", "value_arcsec": 1.0, "sigma_arcsec": 1.0}]}))
    proc = run_cli("fit", "--planets", str(planets), "--observations", str(observations),
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    for key in ("delta_star_arcsec", "delta_sigma_arcsec"):
        assert doc[key] == pytest.approx(3.4728059777270125e-184, rel=4 * 2.0 ** -52, abs=0.0)


def test_table_gr_baseline_beyond_the_float_range(tmp_path):
    # the GR baseline of these elements is inf: json would print Infinity,
    # which no RFC 8259 parser accepts, and csv and text would print inf
    path = tmp_path / "planets.json"
    path.write_text(json.dumps({"schema_version": 1, "planets": [
        {"name": "Tiny", "a_m": 1e-100, "e": 0.1, "tau_days": 1e-300}]}))
    for fmt in ("json", "csv", "text"):
        proc = run_cli("table", "--planets", str(path), "--format", fmt)
        assert proc.returncode == 3, proc.stdout
        assert proc.stdout == ""
        assert proc.stderr.startswith("qgrav: error: Tiny: the GR baseline")


def test_custom_planets_file(tmp_path):
    doc = {"schema_version": 1, "planets": [
        {"name": "Kepler442b", "a_m": 6.06e10, "e": 0.04, "tau_days": 112.3}]}
    path = tmp_path / "planets.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("table", "--planets", str(path), "--format", "json")
    got = json.loads(proc.stdout)
    assert [row["planet"] for row in got["rows"]] == ["Kepler442b"]
    assert got["rows"][0]["observation"] is None


def test_data_dir_env_override(monkeypatch, tmp_path):
    doc = {"schema_version": 1, "planets": [
        {"name": "EnvWorld", "a_m": 1.0e11, "e": 0.1, "tau_days": 200.0}]}
    (tmp_path / "planets.json").write_text(json.dumps(doc))
    (tmp_path / "observations.json").write_text(json.dumps({"observations": [
        {"planet": "EnvWorld", "value_arcsec": 10.0, "sigma_arcsec": 1.0}]}))
    monkeypatch.setenv("QGRAV_DATA_DIR", str(tmp_path))
    proc = run_cli("table", "--format", "json")
    doc_out = json.loads(proc.stdout)
    assert [row["planet"] for row in doc_out["rows"]] == ["EnvWorld"]
    assert doc_out["rows"][0]["observation"]["value_arcsec"] == 10.0


@pytest.mark.parametrize("route", ["--planets", "--observations", "QGRAV_DATA_DIR"])
def test_a_data_path_the_file_system_refuses_is_a_usage_error(monkeypatch, tmp_path, route):
    # A 300-byte file name fails its open() with ENAMETOOLONG, and a path
    # below a regular file with ENOTDIR; each is refused like a failed read.
    # Only a missing file is "not found".
    argv = ["fit", "--format", "json"]
    (tmp_path / "file").write_text("")
    for path, message in (("a" * 300, "cannot be read as JSON: [Errno 36]"),
                          (str(tmp_path / "file" / "below"), "cannot be read as JSON: [Errno 20]"),
                          (str(tmp_path / "missing"), "file not found")):
        if route == "QGRAV_DATA_DIR":
            monkeypatch.setenv(route, path)
            proc = run_cli(*argv)
        else:
            proc = run_cli(*argv, route, path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert message in proc.stderr and "Traceback" not in proc.stderr


# Run in a python -S child: without site nothing is loaded before qgrav, so
# the check needs no snapshot, and numpy, which the test process has loaded,
# is blocked. After each step neither numpy nor any of the standard-library
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
@pytest.mark.parametrize("delta", [0.0, 0.0398, 300.0, 3e4])
@pytest.mark.parametrize("rule", ["perihelion", "semiminor"])
@pytest.mark.parametrize("name", ["Mercury", "Venus", "Earth"])
def test_orbit_export_matches_integrate(capsys, name, rule, delta, orbits):
    # The export spans the public recipe: quantum_from_error, x from
    # orbit_params, theta_max = n 2 pi/x + 0.5, integrate; bit for bit.
    from qgrav import (CONSTANTS_VERSION, QuantizedModel, QuantumRule, cli, derive_orbit,
                       integrate, load_planets, orbit_params, planet_by_name,
                       quantum_from_error)
    orbit = derive_orbit(planet_by_name(load_planets(), name))
    quantum = quantum_from_error(delta, orbit, QuantumRule(rule))
    _, freq_ratio = orbit_params(quantum, orbit)
    model = QuantizedModel(quantum=quantum, mu=orbit.mu, h=orbit.h)
    theta_max = orbits * (2.0 * math.pi / freq_ratio) + 0.5
    traj = integrate(model, 1.0 / orbit.r_p, 0.0, theta_max, tol=1e-12)
    theta, u = traj.theta.tolist(), traj.u.tolist()
    argv = ["orbit", "--planet", name.lower(), "--delta", repr(delta), "--rule", rule,
            "--orbits", str(orbits)]

    assert cli.main([*argv, "--format", "json"]) == 0
    stdout = capsys.readouterr().out
    doc = json.loads(stdout)
    assert [row["theta_rad"] for row in doc["rows"]] == theta
    assert [row["u_per_m"] for row in doc["rows"]] == u
    assert [row["r_m"] for row in doc["rows"]] == [1.0 / x for x in u]
    assert doc["meta"]["steps_accepted"] == traj.n_accepted
    assert doc["meta"]["steps_rejected"] == traj.n_rejected
    # byte for byte what json.dumps and csv.writer make of the trajectory
    expected = {
        "meta": {"command": "orbit", "constants_version": CONSTANTS_VERSION,
                 "rule": rule, "planet": name, "delta_arcsec": delta,
                 "orbits": orbits, "tol": 1e-12, "steps_accepted": traj.n_accepted,
                 "steps_rejected": traj.n_rejected},
        "rows": [{"theta_rad": t, "u_per_m": x, "r_m": 1.0 / x} for t, x in zip(theta, u)],
    }
    assert stdout == json.dumps(expected, indent=2) + "\n"

    assert cli.main([*argv, "--format", "csv"]) == 0
    stdout = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(stdout)))
    assert [float(row[0]) for row in rows[1:]] == theta
    assert [float(row[1]) for row in rows[1:]] == u
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theta_rad", "u_per_m", "r_m"])
    writer.writerows([repr(t), repr(x), repr(1.0 / x)] for t, x in zip(theta, u))
    assert stdout == buf.getvalue()


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
def test_documents_are_written_once(monkeypatch, tmp_path, fmt):
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
    for argv in (["table", "--planets", planets, "--deltas", deltas],
                 ["precess", "--planet", "mercury", "--delta", "0.0398"],
                 ["fit"]):
        out = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main([*argv, "--format", fmt]) == 0
        assert out.writes == 1, argv[0]


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


def test_closed_pipe_is_not_an_error():
    # The reader stops after the first line of a 200-orbit export, or closed
    # the pipe before a small document was written, whether the child's
    # stdout is buffered or not (PYTHONUNBUFFERED). A buffered document
    # meets the closed pipe only when it is flushed, which main does inside
    # its handler; the flush at exit then goes to /dev/null.
    import os
    for unbuffered in ("", "1"):
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        for fmt in ("csv", "json"):
            with subprocess.Popen([sys.executable, "-m", "qgrav", "orbit", "--planet", "mercury",
                                   "--delta", "0.0398", "--orbits", "200", "--format", fmt],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=env) as proc:
                assert proc.stdout.readline().endswith(b"\n")
                proc.stdout.close()
                stderr = proc.stderr.read()
                code = proc.wait(timeout=60)
            assert (code, stderr) == (0, b""), (fmt, unbuffered)
        for argv in (["precess", "--planet", "mercury", "--delta", "0.0398"], ["table"]):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run([sys.executable, "-m", "qgrav", *argv], stdout=write_end,
                                      stderr=subprocess.PIPE, env=env, timeout=60)
            finally:
                os.close(write_end)
            assert (proc.returncode, proc.stderr) == (0, b""), (argv[0], unbuffered)


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

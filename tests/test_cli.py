import csv
import io
import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from qgrav import Trajectory, detect_perihelia


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "qgrav", *args],
                          capture_output=True, text=True, env=env)


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
    assert np.allclose(r, 1.0 / u, rtol=1e-12)
    assert theta[0] == 0.0
    # the exported Newtonian trajectory closes: detected advance < 1e-9 rad
    du = np.gradient(u, theta)
    traj = Trajectory(theta=theta, u=u, du=du, tol=1e-12,
                      n_accepted=len(theta) - 1, n_rejected=0)
    series = detect_perihelia(traj)
    assert np.max(np.abs(series.advances)) < 1e-9


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


def test_model_breakdown_exit_code():
    proc = run_cli("precess", "--planet", "mercury", "--delta", "1e6")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "epsilon" in proc.stderr


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


def test_custom_planets_file(tmp_path):
    doc = {"schema_version": 1, "planets": [
        {"name": "Kepler442b", "a_m": 6.06e10, "e": 0.04, "tau_days": 112.3}]}
    path = tmp_path / "planets.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("table", "--planets", str(path), "--format", "json")
    got = json.loads(proc.stdout)
    assert [row["planet"] for row in got["rows"]] == ["Kepler442b"]
    assert got["rows"][0]["observation"] is None


def test_data_dir_env_override(tmp_path):
    import os
    doc = {"schema_version": 1, "planets": [
        {"name": "EnvWorld", "a_m": 1.0e11, "e": 0.1, "tau_days": 200.0}]}
    (tmp_path / "planets.json").write_text(json.dumps(doc))
    (tmp_path / "observations.json").write_text(json.dumps({"observations": [
        {"planet": "EnvWorld", "value_arcsec": 10.0, "sigma_arcsec": 1.0}]}))
    env = os.environ.copy()
    env["QGRAV_DATA_DIR"] = str(tmp_path)
    proc = run_cli("table", "--format", "json", env=env)
    doc_out = json.loads(proc.stdout)
    assert [row["planet"] for row in doc_out["rows"]] == ["EnvWorld"]
    assert doc_out["rows"][0]["observation"]["value_arcsec"] == 10.0


def _run_python(code):
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True)


def test_analytic_commands_do_not_import_numpy():
    # The test process has numpy loaded already, so the check runs in a child.
    proc = _run_python("""
        import contextlib, io, sys
        import qgrav
        import qgrav.cli
        assert "numpy" not in sys.modules, "import"
        for argv in (["precess", "--planet", "mercury", "--delta", "0.0398"],
                     ["table", "--format", "csv"],
                     ["fit", "--format", "json"],
                     ["sweep", "--planet", "venus", "--steps", "50"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert qgrav.cli.main(argv) == 0, argv
            assert "numpy" not in sys.modules, argv[0]
    """)
    assert proc.returncode == 0, proc.stderr


def test_orbit_export_does_not_import_numpy():
    proc = _run_python("""
        import contextlib, io, sys
        import qgrav, qgrav.cli
        argv = ["orbit", "--planet", "venus", "--delta", "0.0398", "--orbits", "2"]
        for extra in (["--format", "text"], ["--format", "csv"],
                      ["--format", "json"], ["--format", "csv", "--tol", "1e-10"]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert qgrav.cli.main(argv + extra) == 0, extra
            assert out.getvalue(), extra
            assert "numpy" not in sys.modules, extra
        el = qgrav.planet_by_name(qgrav.load_planets(), "mercury")
        orbit = qgrav.derive_orbit(el)
        model = qgrav.QuantizedModel(quantum=0.0, mu=orbit.mu, h=orbit.h)
        traj = qgrav.integrate(model, 1.0 / orbit.r_p, 0.0, 13.0)
        assert "numpy" in sys.modules
        import numpy as np
        series = qgrav.detect_perihelia(traj)
        for field in (traj.theta, traj.u, traj.du, series.angles, series.advances):
            assert isinstance(field, np.ndarray) and field.dtype == np.float64
        result = qgrav.measured_precession(el, 0.0398, n_orbits=2)
        assert type(result.per_orbit_rad) is float
    """)
    assert proc.returncode == 0, proc.stderr


def test_measured_precession_does_not_import_numpy():
    proc = _run_python("""
        import sys
        import qgrav
        results = [qgrav.measured_precession(el, delta, n_orbits=2)
                   for el in qgrav.load_planets() for delta in (0.0, 0.0398)]
        assert "numpy" not in sys.modules
        for result in results:
            assert type(result.per_orbit_rad) is float
            assert type(result.per_century_arcsec) is float
    """)
    assert proc.returncode == 0, proc.stderr


def test_orbit_export_matches_integrate():
    from qgrav import (QuantizedModel, QuantumRule, derive_orbit, integrate,
                       load_planets, orbit_params, planet_by_name, quantum_from_error)
    el = planet_by_name(load_planets(), "venus")
    orbit = derive_orbit(el)
    quantum = quantum_from_error(0.0398, orbit, QuantumRule.PERIHELION)
    _, freq_ratio = orbit_params(quantum, orbit)
    model = QuantizedModel(quantum=quantum, mu=orbit.mu, h=orbit.h)
    theta_max = 2 * (2.0 * math.pi / freq_ratio) + 0.5
    traj = integrate(model, 1.0 / orbit.r_p, 0.0, theta_max, tol=1e-12)
    theta, u = traj.theta.tolist(), traj.u.tolist()
    argv = ("orbit", "--planet", "venus", "--delta", "0.0398", "--orbits", "2")

    doc = json.loads(run_cli(*argv, "--format", "json").stdout)
    assert [row["theta_rad"] for row in doc["rows"]] == theta
    assert [row["u_per_m"] for row in doc["rows"]] == u
    assert [row["r_m"] for row in doc["rows"]] == [1.0 / x for x in u]
    assert doc["meta"]["steps_accepted"] == traj.n_accepted
    assert doc["meta"]["steps_rejected"] == traj.n_rejected

    rows = list(csv.reader(io.StringIO(run_cli(*argv, "--format", "csv").stdout)))
    assert [float(row[0]) for row in rows[1:]] == theta
    assert [float(row[1]) for row in rows[1:]] == u


def test_orbit_names_resolve_on_first_use():
    proc = _run_python("""
        import sys
        import qgrav
        for name in qgrav.__all__:
            getattr(qgrav, name)
        assert "numpy" not in sys.modules
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
    """)
    assert proc.returncode == 0, proc.stderr


def test_console_script_entrypoint():
    try:
        proc = subprocess.run(["qgrav", "precess", "--planet", "earth",
                               "--delta", "0.01"], capture_output=True, text=True)
    except FileNotFoundError:
        pytest.skip("console script not on PATH")
    assert proc.returncode == 0
    assert "3.09 arcsec/century" in proc.stdout

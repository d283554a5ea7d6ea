"""The four workloads: inputs, one timed operation, and its output check.

A workload builds a list of distinct operations from the seed; the timed
loop cycles through them. ``call(i)`` is the only timed code; the
in-process workloads run it in worker.py. ``check(i, out)`` returns None
for a correct output or a one-line reason: the first output of each
operation is verified in full, and every repeat must reproduce it exactly.
Accuracy figures come from those first outputs, so they do not depend on
how many operations fit in the run. ``produces`` names the accuracy metrics
a workload's own outputs give.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import re
import sys
from pathlib import Path

import inputs
import worker
from spawn import run_child

# Acceptance-gate tolerances on the bundled data at delta = 0.0398".
GATE = {"Mercury": (43.08, 0.5), "Venus": (20.18, 0.3), "Earth": (12.30, 0.2)}
REL_TOL = 1e-12           # analytic values and round trips vs the 60-digit reference
NUMBER = re.compile(r"[-+]?\d+\.\d+(?:e[-+]\d+)?")


class Workload:
    name = ""
    in_process = True
    produces: tuple[str, ...] = ()
    # Run in a fresh interpreter to time set-up: the import plus a first call.
    setup_code = ""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.q = ctx.qgrav
        self.accuracy: dict[str, float] = {}
        self.ops: list = []
        self.seen: dict[int, tuple] = {}      # op index -> (first output key, verdict)
        self.child_rss_kib = 0                # largest ru_maxrss of a process that ran ops

    def call(self, i: int):
        raise NotImplementedError

    def call_in_process(self, i: int):
        """The traced variant of ``call``; the same call unless it spawns a process."""
        return self.call(i)

    def check(self, i: int, out) -> str | None:
        key = self.output_key(out)
        if i in self.seen:
            first, verdict = self.seen[i]
            return verdict if key == first else "output changed on a repeat of the same input"
        verdict = self.verify(i, out)
        self.seen[i] = (key, verdict)
        return verdict

    def output_key(self, out):
        return out

    def verify(self, i: int, out) -> str | None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return self.child_rss_kib / 1024.0


# --- numeric-precession ----------------------------------------------------------

class NumericPrecession(Workload):
    name = "numeric-precession"
    produces = ("numeric_err_max_arcsec",)
    setup_code = ("import qgrav; el = qgrav.load_planets()[0]; "
                  "qgrav.measured_precession(el, 0.0398, n_orbits=2)")

    def __init__(self, ctx, n_synthetic: int = 36) -> None:
        super().__init__(ctx)
        self.ops = inputs.numeric_cases(ctx.rng, n_synthetic)
        self.exact = [ctx.ref.exact(c.planet.a, c.planet.e, c.planet.tau_days, c.delta)
                      for c in self.ops]
        self.errors: dict[int, float] = {}
        self.call = worker.numeric_call(self.q, self.ops)

    def verify(self, i, out):
        case = self.ops[i]
        if out.provenance is not self.q.Provenance.NUMERIC:
            return f"provenance {out.provenance!r}"
        exact_rad, exact_arcsec = self.exact[i]
        gap = abs(float(out.per_orbit_rad - exact_rad))
        # README: Newtonian closure < 1e-9 rad/orbit at tol 1e-12; scaled with tol.
        if not gap <= 1e3 * case.tol:
            return (f"{case.planet.name} delta={case.delta:.6g} tol={case.tol:g}: "
                    f"{gap:.3e} rad/orbit from the exact advance")
        # A case that lost a perihelion counts in failed_frac, not here. The
        # maximum is the bundled Venus case at tol 1e-10 on every seed, and
        # the failing cases with their lost perihelion taken out stay below it.
        self.errors[i] = abs(float(out.per_century_arcsec - exact_arcsec))
        self.accuracy["numeric_err_max_arcsec"] = max(self.errors.values())
        return None


# --- calibration-bulk --------------------------------------------------------------

class CalibrationBulk(Workload):
    name = "calibration-bulk"
    produces = ("analytic_rel_err_max", "roundtrip_rel_err_max")
    setup_code = ("import qgrav; p = qgrav.load_planets(); o = qgrav.load_observations(); "
                  "qgrav.fit_delta(o, planets=p); qgrav.gr_precession_baseline(p[0]); "
                  "rows = qgrav.sweep_delta(p[0], 0.01, 0.05, 10); "
                  "qgrav.invert_delta(p[0], rows[-1][1])")

    def __init__(self, ctx, n_tasks: int = 24, sizes: tuple[int, int] = (4, 16)) -> None:
        super().__init__(ctx)
        self.ops = inputs.calibration_tasks(ctx.rng, ctx.workdir, n_tasks, sizes)
        self.accuracy = {"analytic_rel_err_max": 0.0, "roundtrip_rel_err_max": 0.0}
        self.call = worker.calibration_call(self.q, self.ops)

    def verify(self, i, out):
        reason, analytic, roundtrip = self._verify(self.ops[i], out)
        for name, value in (("analytic_rel_err_max", analytic), ("roundtrip_rel_err_max", roundtrip)):
            self.accuracy[name] = max(self.accuracy[name], value)
        return reason

    def _verify(self, task, out):
        """Full check of one result; returns (reason or None, analytic, round trip)."""
        ref = self.ctx.ref
        planets, observations, fit, baselines, sweeps, inverted = out
        if [(p.name, p.a, p.e, p.tau_days) for p in planets] != \
                [(p.name, p.a, p.e, p.tau_days) for p in task.planets]:
            return "planets file read back differently", 0.0, 0.0
        if [(o.planet, o.value_arcsec, o.sigma_arcsec) for o in observations] != \
                [(o.planet, o.value, o.sigma) for o in task.observations]:
            return "observations file read back differently", 0.0, 0.0
        lo, hi, steps = task.sweep
        analytic = roundtrip = 0.0
        for p, base, rows, inv in zip(task.planets, baselines, sweeps, inverted):
            deltas = [d for d, _ in rows]
            if (len(rows) != steps or deltas[0] != lo or deltas[-1] != hi
                    or any(b <= a for a, b in zip(deltas, deltas[1:]))):
                return f"{p.name}: sweep grid is not {steps} increasing steps over [lo, hi]", 0, 0
            analytic = max(analytic, ref.max_rel_err(p.a, p.e, p.tau_days, task.rule, rows))
            for d, back in zip(deltas, inv):
                err = abs(back - d) / d if d else (0.0 if back == 0.0 else math.inf)
                roundtrip = max(roundtrip, err)
            gr = _gr_arcsec(p)
            if abs(base.per_century_arcsec - gr) > REL_TOL * gr:
                return f"{p.name}: GR baseline {base.per_century_arcsec!r} vs {gr!r}", 0, 0
        # Weighted least squares through the origin, slopes taken at delta = 0.01.
        by_name = {p.name: p for p in task.planets}
        rows = [(by_name[o.planet], o) for o in task.observations]
        slopes = [float(ref.first_order_arcsec(p.a, p.e, p.tau_days, 0.01, task.rule)) / 0.01
                  for p, _ in rows]
        wso = math.fsum(s * o.value / o.sigma ** 2 for s, (_, o) in zip(slopes, rows))
        wss = math.fsum(s * s / o.sigma ** 2 for s, (_, o) in zip(slopes, rows))
        delta_star = max(wso / wss, 0.0)
        if abs(fit.delta_star - delta_star) > REL_TOL * max(delta_star, 1e-300):
            return f"fit delta* {fit.delta_star!r} vs {delta_star!r}", 0, 0
        for p, o in rows:
            analytic = max(analytic, ref.max_rel_err(p.a, p.e, p.tau_days, task.rule,
                                                     [(fit.delta_star, fit.predicted[o.planet])]))
        if analytic > REL_TOL:
            return f"analytic values off by {analytic:.3e} relative", analytic, roundtrip
        if roundtrip > REL_TOL:
            return f"invert_delta round trip off by {roundtrip:.3e}", analytic, roundtrip
        return None, analytic, roundtrip


def _gr_arcsec(p) -> float:
    per_orbit = 6.0 * math.pi * inputs.GM_SUN / (299792458.0 ** 2 * p.a * (1.0 - p.e * p.e))
    return per_orbit * inputs.CENTURY_DAYS / p.tau_days * inputs.ARCSEC_PER_RAD


# --- the two CLI workloads -------------------------------------------------------

class CliWorkload(Workload):
    in_process = False

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.cli = importlib.import_module("qgrav.cli")
        self.expected: list = []

    def call(self, i):
        _, code, out, err, rss = run_child(
            [sys.executable, "-m", "qgrav", *self.ops[i].argv], self.ctx.child_env,
            self.ctx.root, self.ctx.workdir)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        return code, out, err

    def call_in_process(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(self.ops[i].argv))
        return code, buf.getvalue().encode(), b""

    def output_key(self, out):
        return out[:2]           # exit code and stdout bytes

    def verify(self, i, out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.decode(errors='replace').strip()[:200]}"
        return self._check_output(i, stdout.decode())

    def _check_output(self, i, text):
        raise NotImplementedError


def _machine_values(command: str, fmt: str, text: str):
    """Parse csv/json output and pick out its numbers, or raise ValueError."""
    if fmt == "json":
        return _JSON_VALUES[command](json.loads(text))
    rows = list(csv.reader(io.StringIO(text)))
    return _CSV_VALUES[command](rows[0], rows[1:])


def _compare(fmt: str, got, expected) -> str | None:
    """Exact comparison: json floats by value, csv fields by repr."""
    if len(got) != len(expected):
        return f"{len(got)} values where {len(expected)} were expected"
    for g, e in zip(got, expected):
        if (g != e) if fmt == "json" else (g != repr(e)):
            return f"value {g!r} where the library gives {e!r}"
    return None


class CliAnalytic(CliWorkload):
    name = "cli-analytic"
    produces = ("analytic_rel_err_max",)
    setup_code = ("import contextlib, io, qgrav.cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    qgrav.cli.main(['precess', '--planet', 'mercury', '--delta', '0.0398'])")

    def __init__(self, ctx, n_specs: int = 24) -> None:
        super().__init__(ctx)
        self.ops = inputs.analytic_specs(ctx.rng, ctx.workdir, n_specs)
        analytic = 0.0
        for spec in self.ops:
            expected, model_values, gate = self._expected(spec)
            self.expected.append((expected, gate))
            if spec.fmt != "text":
                for el, delta, value in model_values:
                    analytic = max(analytic, ctx.ref.max_rel_err(
                        el.a, el.e, el.tau_days, spec.rule, [(delta, value)]))
        self.accuracy = {"analytic_rel_err_max": analytic}

    def _expected(self, spec):
        """Library results for a spec: ({fmt: values}, model values, gate failure)."""
        q = self.q
        rule = q.QuantumRule(spec.rule)
        planets = q.load_planets(spec.planets_path)
        model, gate = [], None
        if spec.command == "precess":
            el = q.planet_by_name(planets, spec.planet)
            r = q.planet_precession(el, spec.delta, rule)
            model.append((el, spec.delta, r.per_century_arcsec))
            values = {"json": [r.per_orbit_rad, r.per_century_arcsec],
                      "csv": [r.per_orbit_rad, r.per_century_arcsec],
                      "text": [f"{r.per_century_arcsec:.2f}"]}
        elif spec.command == "table":
            obs = {o.planet.lower(): o for o in q.load_observations(spec.observations_path)}
            flat, text = [], []
            for el in planets:
                o = obs.get(el.name.lower())
                head = [] if o is None else [o.value_arcsec, o.sigma_arcsec]
                gr = q.gr_precession_baseline(el).per_century_arcsec
                cols = [q.planet_precession(el, d, rule).per_century_arcsec for d in spec.deltas]
                model += [(el, d, v) for d, v in zip(spec.deltas, cols)]
                flat += head + [gr] + cols
                text += [f"{v:.2f}" for v in head + [gr] + cols]
            values = {"json": flat, "csv": flat, "text": text}
        elif spec.command == "fit":
            observations = q.load_observations(spec.observations_path)
            fit = q.fit_delta(observations, rule, planets)
            per_row = [[o.value_arcsec, o.sigma_arcsec, fit.predicted[o.planet],
                        fit.residuals[o.planet]] for o in observations]
            model += [(q.planet_by_name(planets, o.planet), fit.delta_star, fit.predicted[o.planet])
                      for o in observations]
            head = [fit.delta_star, fit.delta_sigma, fit.chi2]
            values = {"json": head + [v for row in per_row for v in row],
                      "csv": [v for row in per_row for v in row + head],
                      "text": [f"{fit.delta_star:.5f}", f"{fit.delta_sigma:.5f}", f"{fit.chi2:.2f}"]
                      + [s for row in per_row for s in (f"{row[2]:.2f}", f"{row[3]:+.2f}")]}
        else:
            el = q.planet_by_name(planets, spec.planet)
            rows = q.sweep_delta(el, *spec.sweep, rule)
            model += [(el, d, v) for d, v in rows]
            values = {"json": [x for row in rows for x in row],
                      "csv": [x for row in rows for x in row],
                      "text": [s for d, v in rows for s in (f"{d:.5f}", f"{v:.2f}")]}
        if spec.planets_path is None and spec.rule == "perihelion":
            for el, delta, value in model:
                centre, width = GATE.get(el.name, (value, 0.0))
                if delta == inputs.PAPER_DELTA and abs(value - centre) > width:
                    gate = f"{el.name} {value:.3f} outside the gate {centre} +/- {width}"
        return values[spec.fmt], model, gate

    def _check_output(self, i, text):
        spec = self.ops[i]
        expected, gate = self.expected[i]
        if gate is not None:
            return gate
        if spec.fmt == "text":
            body = text.splitlines()
            if spec.command in ("table", "sweep"):
                body = body[1:]             # header row
            got = NUMBER.findall("\n".join(body))
            return None if got == expected else f"text numbers {got[:4]} ... differ from the library"
        try:
            got = _machine_values(spec.command, spec.fmt, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{spec.fmt} output does not parse: {exc}"
        return _compare(spec.fmt, got, expected)


def _json_table(doc):
    out = []
    for row in doc["rows"]:
        obs = row["observation"]
        out += [] if obs is None else [obs["value_arcsec"], obs["sigma_arcsec"]]
        out += [row["gr_baseline_arcsec"]] + list(row["model_arcsec"].values())
    return out


_JSON_VALUES = {
    "precess": lambda d: [d["per_orbit_rad"], d["per_century_arcsec"]],
    "table": _json_table,
    "fit": lambda d: [d["delta_star_arcsec"], d["delta_sigma_arcsec"], d["chi2"]]
    + [r[k] for r in d["rows"] for k in ("observed_arcsec", "sigma_arcsec",
                                         "predicted_arcsec", "residual_arcsec")],
    "sweep": lambda d: [r[k] for r in d["rows"] for k in ("delta_arcsec", "per_century_arcsec")],
}
_CSV_VALUES = {
    "precess": lambda head, rows: [rows[0][3], rows[0][4]],
    "table": lambda head, rows: [f for r in rows for f in r[1:] if f != ""],
    "fit": lambda head, rows: [f for r in rows for f in r[1:]],
    "sweep": lambda head, rows: [f for r in rows for f in r],
}


class CliOrbitExport(CliWorkload):
    name = "cli-orbit-export"
    setup_code = ("import contextlib, io, qgrav.cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    qgrav.cli.main(['orbit', '--planet', 'mercury', '--delta', '0.0398', "
                  "'--orbits', '1', '--format', 'csv'])")

    def __init__(self, ctx, n_trajectories: int = 6) -> None:
        super().__init__(ctx)
        self.ops = inputs.orbit_specs(ctx.rng, ctx.workdir, n_trajectories)
        trajectories = {}
        for spec in self.ops:
            key = (spec.planet, spec.delta, spec.orbits)
            if key not in trajectories:
                trajectories[key] = self._trajectory(spec)
            self.expected.append(trajectories[key])

    def _trajectory(self, spec):
        """Library trajectory for a spec and a failure reason for its shape, if any."""
        q = self.q
        el = q.planet_by_name(q.load_planets(spec.planets_path), spec.planet)
        orbit = q.derive_orbit(el)
        quantum = q.quantum_from_error(spec.delta, orbit, q.QuantumRule.PERIHELION)
        _, freq_ratio = q.orbit_params(quantum, orbit)
        model = q.QuantizedModel(quantum=quantum, mu=orbit.mu, h=orbit.h)
        theta_max = spec.orbits * (2.0 * math.pi / freq_ratio) + 0.5
        traj = q.integrate(model, u0=1.0 / orbit.r_p, du0=0.0, theta_max=theta_max, tol=1e-12)
        theta, u = traj.theta.tolist(), traj.u.tolist()
        reason = None
        if theta[0] != 0.0 or u[0] != 1.0 / orbit.r_p:
            reason = "export does not start at the perihelion"
        elif any(b <= a for a, b in zip(theta, theta[1:])):
            reason = "theta is not strictly increasing"
        elif any(abs(x * (1.0 / x) - 1.0) > 2.3e-16 for x in u):
            reason = "r_m * u_per_m is not 1 to roundoff"
        return theta, u, [1.0 / x for x in u], traj.n_accepted, reason

    def _check_output(self, i, text):
        spec = self.ops[i]
        theta, u, r, accepted, reason = self.expected[i]
        if reason is not None:
            return reason
        try:
            if spec.fmt == "json":
                doc = json.loads(text)
                if doc["meta"]["steps_accepted"] != accepted:
                    return "meta.steps_accepted differs from the library"
                rows = doc["rows"]
                got = ([row["theta_rad"] for row in rows], [row["u_per_m"] for row in rows],
                       [row["r_m"] for row in rows])
                return None if got == (theta, u, r) else "json samples differ from the library"
            lines = text.splitlines()
            if spec.fmt == "csv":
                rows = list(csv.reader(lines))
                if rows[0] != ["theta_rad", "u_per_m", "r_m"]:
                    return f"csv header {rows[0]}"
                want = [[repr(t), repr(x), repr(y)] for t, x, y in zip(theta, u, r)]
                return None if rows[1:] == want else "csv samples differ from the library"
            want = [[f"{t:.9f}", f"{x:.15e}", f"{y:.15e}"] for t, x, y in zip(theta, u, r)]
            return None if [ln.split() for ln in lines[1:]] == want else \
                "text samples differ from the library"
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{spec.fmt} output does not parse: {exc}"


WORKLOADS = {w.name: w for w in (CliAnalytic, CliOrbitExport, NumericPrecession, CalibrationBulk)}

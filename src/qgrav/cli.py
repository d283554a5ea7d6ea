"""Command-line surface: comparison tables, predictions, orbit export, fitting.

Commands
    table    per-planet precession table: observation, GR baseline, model columns
    precess  analytic prediction for one planet and one error angle
    orbit    integrate the exact orbit and export (theta, u, r) samples
    fit      weighted least squares for a shared error angle
    sweep    model precession over an evenly spaced range of error angles

All commands accept --format text|csv|json. Machine formats carry full
precision; text rounds to two decimals. Errors go to stderr only, so csv
and json on stdout always parse. Exit codes: 0 success; 2 when a flag or a
data file is rejected before any computation; 3 when the model cannot
evaluate valid input (model breakdown or another domain error).

Only `orbit` imports the integrator layer, and it runs the integrator's
plain-float core, so no command loads numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .bodies import CONSTANTS_VERSION, load_planets, planet_by_name
from .calibrate import fit_delta, load_observations, sweep_delta
from .errors import IngestionError, QgravError
from .forces import gr_precession_baseline
from .precession import QuantumRule, planet_precession

# Size flags are bounded so that no invocation can ask for unbounded work.
MAX_ORBITS = 1000
MAX_SWEEP_STEPS = 100_000
MAX_DELTAS = 100

_RULE_HELP = (
    "length scale converting the error angle to the space quantum: 'perihelion' "
    "(default) uses a(1-e) and reproduces the bundled reference table; "
    "'semiminor' uses the semi-minor axis b and predicts >20%% more for "
    "eccentric orbits"
)


def _parse_deltas(text: str) -> list[float]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("at least one delta value is required")
    if len(parts) > MAX_DELTAS:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_DELTAS} delta values, got {len(parts)}")
    try:
        values = [float(part) for part in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad delta list {text!r}: {exc}") from exc
    if any(not math.isfinite(v) or v < 0 for v in values):
        raise argparse.ArgumentTypeError("delta values must be finite and >= 0")
    return sorted(set(values))


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _bounded_int(low: int, high: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}], got {value}")
        return value
    return parse


def _tolerance(text: str) -> float:
    # Runs only when `orbit --tol` is given, so the analytic commands never
    # import the integrator layer for its bounds.
    from .orbit import TOL_MAX, TOL_MIN
    value = _nonnegative_float(text)
    if not TOL_MIN <= value <= TOL_MAX:
        raise argparse.ArgumentTypeError(f"must lie in [{TOL_MIN}, {TOL_MAX}], got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, observations: bool = False,
                planet: bool = False) -> None:
    parser.add_argument("--planets", metavar="PATH", default=None,
                        help="planets file (default: bundled data or $QGRAV_DATA_DIR)")
    if observations:
        parser.add_argument("--observations", metavar="PATH", default=None,
                            help="observations file (default: bundled data or $QGRAV_DATA_DIR)")
    if planet:
        parser.add_argument("--planet", required=True, help="planet name (case-insensitive)")
    parser.add_argument("--rule", choices=[r.value for r in QuantumRule],
                        default=QuantumRule.PERIHELION.value, help=_RULE_HELP)
    parser.add_argument("--format", choices=["text", "csv", "json"], default="text",
                        help="output format (machine formats keep full precision)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgrav",
        description="Quantized-length gravity laboratory: perihelion precession "
                    "from a minimal measurable length.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="per-planet precession comparison table")
    _add_common(p_table, observations=True)
    p_table.add_argument("--deltas", type=_parse_deltas, default=[0.01, 0.0398, 0.05],
                         metavar="LIST",
                         help="comma-separated error angles in arcsec (default 0.01,0.0398,0.05)")
    p_table.set_defaults(func=cmd_table)

    p_precess = sub.add_parser("precess", help="analytic precession for one planet")
    _add_common(p_precess, planet=True)
    p_precess.add_argument("--delta", type=_nonnegative_float, required=True,
                           help="measurement error angle in arcsec")
    p_precess.set_defaults(func=cmd_precess)

    p_orbit = sub.add_parser("orbit", help="integrate the exact orbit and export samples")
    _add_common(p_orbit, planet=True)
    p_orbit.add_argument("--delta", type=_nonnegative_float, required=True,
                         help="measurement error angle in arcsec")
    p_orbit.add_argument("--orbits", type=_bounded_int(1, MAX_ORBITS), default=3,
                         help=f"revolutions to integrate (1..{MAX_ORBITS})")
    p_orbit.add_argument("--tol", type=_tolerance, default=1e-12,
                         help="integrator relative tolerance")
    p_orbit.set_defaults(func=cmd_orbit)

    p_fit = sub.add_parser("fit", help="fit one error angle to observed precession")
    _add_common(p_fit, observations=True)
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="precession over a range of error angles")
    _add_common(p_sweep, planet=True)
    p_sweep.add_argument("--delta-min", type=_nonnegative_float, default=0.01)
    p_sweep.add_argument("--delta-max", type=_nonnegative_float, default=0.05)
    p_sweep.add_argument("--steps", type=_bounded_int(2, MAX_SWEEP_STEPS), default=5,
                         help=f"rows, endpoints included (2..{MAX_SWEEP_STEPS})")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _meta(args: argparse.Namespace, **extra) -> dict:
    meta = {"command": args.command, "constants_version": CONSTANTS_VERSION,
            "rule": args.rule}
    meta.update(extra)
    return meta


def _emit_json(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _fmt_delta(delta: float) -> str:
    return f"{delta:g}"


def cmd_table(args: argparse.Namespace) -> int:
    planets = load_planets(args.planets)
    observations = load_observations(args.observations)
    obs_by_planet = {obs.planet.lower(): obs for obs in observations}
    rule = QuantumRule(args.rule)
    deltas = args.deltas

    rows = []
    for el in planets:
        obs = obs_by_planet.get(el.name.lower())
        baseline = gr_precession_baseline(el)
        model = {delta: planet_precession(el, delta, rule).per_century_arcsec
                 for delta in deltas}
        rows.append((el, obs, baseline, model))

    if args.format == "json":
        _emit_json({
            "meta": _meta(args, deltas=deltas),
            "rows": [
                {
                    "planet": el.name,
                    "observation": None if obs is None else
                        {"value_arcsec": obs.value_arcsec, "sigma_arcsec": obs.sigma_arcsec},
                    "gr_baseline_arcsec": baseline.per_century_arcsec,
                    "model_arcsec": {_fmt_delta(d): v for d, v in model.items()},
                }
                for el, obs, baseline, model in rows
            ],
        })
    elif args.format == "csv":
        header = (["planet", "observation_arcsec", "observation_sigma_arcsec",
                   "gr_baseline_arcsec"]
                  + [f"delta_{_fmt_delta(d)}" for d in deltas])
        _emit_csv(header, [
            [el.name,
             "" if obs is None else repr(obs.value_arcsec),
             "" if obs is None else repr(obs.sigma_arcsec),
             repr(baseline.per_century_arcsec)]
            + [repr(model[d]) for d in deltas]
            for el, obs, baseline, model in rows
        ])
    else:
        headers = (["planet", "observation", "gr-baseline"]
                   + [f"delta={_fmt_delta(d)}" for d in deltas])
        table: list[list[str]] = [headers]
        for el, obs, baseline, model in rows:
            obs_text = "-" if obs is None else f"{obs.value_arcsec:.2f} ± {obs.sigma_arcsec:.2f}"
            table.append([el.name, obs_text, f"{baseline.per_century_arcsec:.2f}"]
                         + [f"{model[d]:.2f}" for d in deltas])
        widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
        for line in table:
            print("  ".join(cell.rjust(width) if j else cell.ljust(width)
                            for j, (cell, width) in enumerate(zip(line, widths))))
    return 0


def cmd_precess(args: argparse.Namespace) -> int:
    planets = load_planets(args.planets)
    el = planet_by_name(planets, args.planet)
    rule = QuantumRule(args.rule)
    result = planet_precession(el, args.delta, rule)
    if args.format == "json":
        _emit_json({
            "meta": _meta(args, planet=el.name, delta_arcsec=args.delta),
            "per_orbit_rad": result.per_orbit_rad,
            "per_century_arcsec": result.per_century_arcsec,
            "provenance": result.provenance.value,
        })
    elif args.format == "csv":
        _emit_csv(["planet", "delta_arcsec", "rule", "per_orbit_rad",
                   "per_century_arcsec", "provenance"],
                  [[el.name, repr(args.delta), rule.value, repr(result.per_orbit_rad),
                    repr(result.per_century_arcsec), result.provenance.value]])
    else:
        print(f"{result.per_century_arcsec:.2f} arcsec/century")
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    # The plain-float core, not orbit.integrate: packing the samples into
    # numpy arrays would cost the numpy import and give nothing to print.
    from .orbit import _integrate, _perihelion_start
    planets = load_planets(args.planets)
    el = planet_by_name(planets, args.planet)
    _, model, u0, theta_max = _perihelion_start(el, args.delta, QuantumRule(args.rule),
                                                args.orbits)
    thetas, us, _, n_accepted, n_rejected = _integrate(model, u0, 0.0, theta_max, args.tol)
    if args.format == "json":
        _emit_json({
            "meta": _meta(args, planet=el.name, delta_arcsec=args.delta,
                          orbits=args.orbits, tol=args.tol,
                          steps_accepted=n_accepted,
                          steps_rejected=n_rejected),
            "rows": [
                {"theta_rad": t, "u_per_m": u, "r_m": 1.0 / u}
                for t, u in zip(thetas, us)
            ],
        })
    elif args.format == "csv":
        _emit_csv(["theta_rad", "u_per_m", "r_m"],
                  [[repr(t), repr(u), repr(1.0 / u)] for t, u in zip(thetas, us)])
    else:
        print(f"{'theta_rad':>18}  {'u_per_m':>24}  {'r_m':>24}")
        for t, u in zip(thetas, us):
            print(f"{t:18.9f}  {u:24.15e}  {1.0 / u:24.15e}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    planets = load_planets(args.planets)
    observations = load_observations(args.observations)
    rule = QuantumRule(args.rule)
    result = fit_delta(observations, rule, planets)
    obs_order = [obs.planet for obs in observations]
    if args.format == "json":
        _emit_json({
            "meta": _meta(args),
            "delta_star_arcsec": result.delta_star,
            "delta_sigma_arcsec": result.delta_sigma,
            "chi2": result.chi2,
            "rows": [
                {
                    "planet": obs.planet,
                    "observed_arcsec": obs.value_arcsec,
                    "sigma_arcsec": obs.sigma_arcsec,
                    "predicted_arcsec": result.predicted[obs.planet],
                    "residual_arcsec": result.residuals[obs.planet],
                }
                for obs in observations
            ],
        })
    elif args.format == "csv":
        _emit_csv(["planet", "observed_arcsec", "sigma_arcsec", "predicted_arcsec",
                   "residual_arcsec", "delta_star_arcsec", "delta_sigma_arcsec", "chi2"],
                  [[obs.planet, repr(obs.value_arcsec), repr(obs.sigma_arcsec),
                    repr(result.predicted[obs.planet]), repr(result.residuals[obs.planet]),
                    repr(result.delta_star), repr(result.delta_sigma), repr(result.chi2)]
                   for obs in observations])
    else:
        print(f"delta* = {result.delta_star:.5f} ± {result.delta_sigma:.5f} arcsec "
              f"(chi2 = {result.chi2:.2f})")
        for planet in obs_order:
            print(f"  {planet:<10} predicted {result.predicted[planet]:7.2f}  "
                  f"residual {result.residuals[planet]:+7.2f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    planets = load_planets(args.planets)
    el = planet_by_name(planets, args.planet)
    rule = QuantumRule(args.rule)
    rows = sweep_delta(el, args.delta_min, args.delta_max, args.steps, rule)
    if args.format == "json":
        _emit_json({
            "meta": _meta(args, planet=el.name, delta_min=args.delta_min,
                          delta_max=args.delta_max, steps=args.steps),
            "rows": [{"delta_arcsec": d, "per_century_arcsec": v} for d, v in rows],
        })
    elif args.format == "csv":
        _emit_csv(["delta_arcsec", "per_century_arcsec"],
                  [[repr(d), repr(v)] for d, v in rows])
    else:
        print(f"{'delta_arcsec':>14}  {'arcsec/century':>16}")
        for d, v in rows:
            print(f"{d:14.5f}  {v:16.2f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and not args.delta_min < args.delta_max:
        parser.error(f"sweep needs --delta-min < --delta-max, got "
                     f"{args.delta_min!r} and {args.delta_max!r}")
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the stream; not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except IngestionError as exc:
        print(f"qgrav: error: {exc}", file=sys.stderr)
        return 2
    except QgravError as exc:
        print(f"qgrav: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

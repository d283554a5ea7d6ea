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

Every command, `orbit` included, runs on the standard library alone.

Each command returns its document and main alone writes it. A stdout
write costs microseconds whatever its size, and a system call of its own
when stdout is unbuffered (python -u or PYTHONUNBUFFERED). The documents of
`table`, `precess` and `fit` are small, a row per planet, so each is built
as one string and written once. The rows of `orbit` and `sweep` can number
thousands, so _emit_rows returns them as lazy pieces, which main writes as
they are made, _BATCH pieces to a write. main flushes stdout inside the
try that its BrokenPipeError handler guards, so a reader that stops early
ends every run with exit 0: unflushed, a document still in the buffer
would meet the closed pipe at exit, past the handler.

The rows of `orbit` and `sweep` are flat floats, and _emit_rows formats
each through one %-template per format, built once, with no encoder in the
loop. The json and csv templates format floats with %r, which is
float.__repr__: the same bytes as json.dumps(indent=2) and csv.writer over
the repr strings write for any finite float (a repr never holds a comma,
quote or newline, so csv quotes none). json writes Infinity where repr
writes inf, so a row value beyond the float range raises DomainError
(exit 3) before the first write, in every format.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from collections.abc import Iterable
from itertools import chain, islice

from .bodies import CONSTANTS_VERSION, load_planets, planet_by_name
from .calibrate import fit_delta, load_observations, sweep_delta
from .errors import DomainError, IngestionError, QgravError
from .forces import gr_precession_baseline
from .orbit import TOL_MAX, TOL_MIN, _export
from .precession import QuantumRule, planet_precession

# Size flags are bounded so that no invocation can ask for unbounded work.
MAX_ORBITS = 1000
MAX_SWEEP_STEPS = 100_000
MAX_DELTAS = 100

# Rows of `orbit` and `sweep` joined into one stdout write.
_BATCH = 1024

_RULE_HELP = (
    "length scale converting the error angle to the space quantum: 'perihelion' "
    "(default) uses a(1-e) and reproduces the bundled reference table; "
    "'semiminor' uses the semi-minor axis b and predicts >20%% more for "
    "eccentric orbits"
)


def _bounded(convert, low, high):
    """An argparse type reading convert(text), kept if in [low, high] and finite."""
    def parse(text: str):
        try:
            value = convert(text) + 0  # a float -0 becomes 0
        except ValueError:
            value = math.nan
        # The range test comes first: isfinite raises OverflowError on a huge int.
        if not (low <= value <= high and math.isfinite(value)):
            raise argparse.ArgumentTypeError(
                f"must be a finite {convert.__name__} in [{low}, {high}], got {text!r}")
        return value
    return parse


_delta = _bounded(float, 0.0, math.inf)


def _parse_deltas(text: str) -> list[float]:
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("at least one delta value is required")
    if len(parts) > MAX_DELTAS:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_DELTAS} delta values, got {len(parts)}")
    # Sorted, equal labels (a repeated value among them) are neighbours.
    values = sorted(map(_delta, parts))
    for a, b in zip(values, values[1:]):
        if _fmt_delta(a) == _fmt_delta(b):
            raise argparse.ArgumentTypeError(
                f"delta values {a!r} and {b!r} share the column label {_fmt_delta(a)!r}")
    return values


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
    p_precess.add_argument("--delta", type=_delta, required=True,
                           help="measurement error angle in arcsec")
    p_precess.set_defaults(func=cmd_precess)

    p_orbit = sub.add_parser("orbit", help="integrate the exact orbit and export samples")
    _add_common(p_orbit, planet=True)
    p_orbit.add_argument("--delta", type=_delta, required=True,
                         help="measurement error angle in arcsec")
    p_orbit.add_argument("--orbits", type=_bounded(int, 1, MAX_ORBITS), default=3,
                         help=f"first-order radial periods 2 pi/x to integrate, plus 0.5 "
                              f"rad (1..{MAX_ORBITS}); at large epsilon fewer exact periods")
    p_orbit.add_argument("--tol", type=_bounded(float, TOL_MIN, TOL_MAX), default=1e-12,
                         help="integrator relative tolerance")
    p_orbit.set_defaults(func=cmd_orbit)

    p_fit = sub.add_parser("fit", help="fit one error angle to observed precession")
    _add_common(p_fit, observations=True)
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="precession over a range of error angles")
    _add_common(p_sweep, planet=True)
    p_sweep.add_argument("--delta-min", type=_delta, default=0.01)
    p_sweep.add_argument("--delta-max", type=_delta, default=0.05)
    p_sweep.add_argument("--steps", type=_bounded(int, 2, MAX_SWEEP_STEPS), default=5,
                         help=f"rows, endpoints included (2..{MAX_SWEEP_STEPS})")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _meta(args: argparse.Namespace, **extra) -> dict:
    meta = {"command": args.command, "constants_version": CONSTANTS_VERSION,
            "rule": args.rule}
    meta.update(extra)
    return meta


def _emit_json(doc: dict) -> list[str]:
    return [json.dumps(doc, indent=2) + "\n"]


def _emit_csv(header: list[str], rows: Iterable[list]) -> list[str]:
    import csv  # here, so that orbit and sweep, which never use it, start without it
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(chain([header], rows))
    return [buffer.getvalue()]


def _emit_rows(args: argparse.Namespace, meta: dict, keys: tuple[str, ...],
               text_head: str, text_row: str, rows: Iterable[tuple[float, ...]],
               largest: float) -> Iterable[str]:
    """The pieces of float rows in args.format, one %-template per row.

    json puts meta first and one object per row under "rows"; csv writes
    keys as its header; text writes text_head, then text_row per row. rows
    holds at least one row and is read once, as the pieces are. largest is
    a value that is finite exactly when every row value is; DomainError
    unless it is, before any piece is made.
    """
    if not math.isfinite(largest):
        raise DomainError(f"{args.command} output holds {largest!r}, beyond the float "
                          f"range; only finite values are written")
    rows = iter(rows)
    if args.format == "json":
        # json.dumps without its closing "\n}", the rows' list inserted there
        head = json.dumps({"meta": meta}, indent=2)[:-2]
        row = ("    {\n"
               + ",\n".join(f"      {json.dumps(key)}: %r" for key in keys)
               + "\n    }")
        return chain([head, ',\n  "rows": [\n', row % next(rows)],
                     map((",\n" + row).__mod__, rows), ["\n  ]\n}\n"])
    if args.format == "csv":
        row = ",".join(["%r"] * len(keys)) + "\n"
        return chain([",".join(keys) + "\n"], map(row.__mod__, rows))
    return chain([text_head], map(text_row.__mod__, rows))


def _fmt_delta(delta: float) -> str:
    return f"{delta:g}"


def cmd_table(args: argparse.Namespace) -> Iterable[str]:
    planets = load_planets(args.planets)
    observations = load_observations(args.observations)
    obs_by_planet = {obs.planet.lower(): obs for obs in observations}
    deltas = args.deltas

    rows = []
    for el in planets:
        obs = obs_by_planet.get(el.name.lower())
        baseline = gr_precession_baseline(el)
        model = {delta: planet_precession(el, delta, args.rule).per_century_arcsec
                 for delta in deltas}
        rows.append((el, obs, baseline, model))

    if args.format == "json":
        return _emit_json({
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
    if args.format == "csv":
        header = (["planet", "observation_arcsec", "observation_sigma_arcsec",
                   "gr_baseline_arcsec"]
                  + [f"delta_{_fmt_delta(d)}" for d in deltas])
        return _emit_csv(header, [
            [el.name,
             "" if obs is None else repr(obs.value_arcsec),
             "" if obs is None else repr(obs.sigma_arcsec),
             repr(baseline.per_century_arcsec)]
            + [repr(model[d]) for d in deltas]
            for el, obs, baseline, model in rows
        ])
    headers = (["planet", "observation", "gr-baseline"]
               + [f"delta={_fmt_delta(d)}" for d in deltas])
    table: list[list[str]] = [headers]
    for el, obs, baseline, model in rows:
        obs_text = "-" if obs is None else f"{obs.value_arcsec:.2f} ± {obs.sigma_arcsec:.2f}"
        table.append([el.name, obs_text, f"{baseline.per_century_arcsec:.2f}"]
                     + [f"{model[d]:.2f}" for d in deltas])
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    return ["".join(
        "  ".join(cell.rjust(width) if j else cell.ljust(width)
                  for j, (cell, width) in enumerate(zip(line, widths))) + "\n"
        for line in table)]


def cmd_precess(args: argparse.Namespace) -> Iterable[str]:
    planets = load_planets(args.planets)
    el = planet_by_name(planets, args.planet)
    result = planet_precession(el, args.delta, args.rule)
    if args.format == "json":
        return _emit_json({
            "meta": _meta(args, planet=el.name, delta_arcsec=args.delta),
            "per_orbit_rad": result.per_orbit_rad,
            "per_century_arcsec": result.per_century_arcsec,
            "provenance": result.provenance.value,
        })
    if args.format == "csv":
        return _emit_csv(["planet", "delta_arcsec", "rule", "per_orbit_rad",
                          "per_century_arcsec", "provenance"],
                         [[el.name, repr(args.delta), args.rule, repr(result.per_orbit_rad),
                           repr(result.per_century_arcsec), result.provenance.value]])
    return [f"{result.per_century_arcsec:.2f} arcsec/century\n"]


def cmd_orbit(args: argparse.Namespace) -> Iterable[str]:
    planets = load_planets(args.planets)
    el = planet_by_name(planets, args.planet)
    traj = _export(el, args.delta, args.rule, args.orbits, args.tol)
    # theta is at most _export's span and every u passed the forcing check
    # (u > 0, q u < 1), so only r = 1/u can leave the float range.
    return _emit_rows(args,
                      _meta(args, planet=el.name, delta_arcsec=args.delta, orbits=args.orbits,
                            tol=args.tol, steps_accepted=traj.n_accepted,
                            steps_rejected=traj.n_rejected),
                      ("theta_rad", "u_per_m", "r_m"),
                      f"{'theta_rad':>18}  {'u_per_m':>24}  {'r_m':>24}\n",
                      "%18.9f  %24.15e  %24.15e\n",
                      zip(traj.theta, traj.u, map((1.0).__truediv__, traj.u)),
                      1.0 / min(traj.u))


def cmd_fit(args: argparse.Namespace) -> Iterable[str]:
    planets = load_planets(args.planets)
    observations = load_observations(args.observations)
    result = fit_delta(observations, args.rule, planets)
    if args.format == "json":
        return _emit_json({
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
    if args.format == "csv":
        return _emit_csv(["planet", "observed_arcsec", "sigma_arcsec", "predicted_arcsec",
                          "residual_arcsec", "delta_star_arcsec", "delta_sigma_arcsec", "chi2"],
                         [[obs.planet, repr(obs.value_arcsec), repr(obs.sigma_arcsec),
                           repr(result.predicted[obs.planet]),
                           repr(result.residuals[obs.planet]), repr(result.delta_star),
                           repr(result.delta_sigma), repr(result.chi2)]
                          for obs in observations])
    return [f"delta* = {result.delta_star:.5f} ± {result.delta_sigma:.5f} arcsec "
            f"(chi2 = {result.chi2:.2f})\n"
            + "".join(f"  {obs.planet:<10} predicted {result.predicted[obs.planet]:7.2f}  "
                      f"residual {result.residuals[obs.planet]:+7.2f}\n" for obs in observations)]


def cmd_sweep(args: argparse.Namespace) -> Iterable[str]:
    planets = load_planets(args.planets)
    el = planet_by_name(planets, args.planet)
    rows = sweep_delta(el, args.delta_min, args.delta_max, args.steps, args.rule)
    # every delta is finite, being at most delta_max, so only a precession can overflow
    return _emit_rows(args,
                      _meta(args, planet=el.name, delta_min=args.delta_min,
                            delta_max=args.delta_max, steps=args.steps),
                      ("delta_arcsec", "per_century_arcsec"),
                      f"{'delta_arcsec':>14}  {'arcsec/century':>16}\n",
                      "%14.5f  %16.2f\n",
                      rows, max(per_century for _, per_century in rows))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and not args.delta_min < args.delta_max:
        parser.error(f"sweep needs --delta-min < --delta-max, got "
                     f"{args.delta_min!r} and {args.delta_max!r}")
    try:
        pieces = iter(args.func(args))
        write = sys.stdout.write
        while batch := list(islice(pieces, _BATCH)):
            write("".join(batch))
        # A buffered document meets a closed pipe here, not at exit.
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # The reader (e.g. head) closed the pipe; not an error. The buffer
        # still holds what failed, and is flushed again at exit: to /dev/null.
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

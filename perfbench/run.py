"""qgrav benchmark: four workloads, end-to-end metrics, and a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cli-analytic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client runs a closed loop: each operation starts when the previous one
has finished. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes over the workload's distinct
operations and prints the per-layer metrics. The last line of standard
output is one JSON object; a human-readable summary precedes it, and a run
record (plus, when traced, the spans) is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import pickle
import random
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SEGMENTS = 8                # slices of the timed loop; set-up is timed around each
CONTEXT_REPS = 3
MIN_OPS = 100               # a timed loop runs past --seconds until it has this many

END_TO_END = {
    "setup_s": "s", "latency_p50_s": "s", "latency_p90_s": "s",
    "throughput_ops_per_s": "1/s", "peak_rss_mb": "MB",
    "numeric_err_max_arcsec": "arcsec", "analytic_rel_err_max": "ratio",
    "roundtrip_rel_err_max": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {"cli.interpreter_floor_s": "s", "cli.import_s": "s", "cli.import_numpy_s": "s",
             "cli.main_s": "s", "cli.stdout_bytes": "bytes"}
    functions = ([f"orbit.{f}" for f in ("integrate", "detect_perihelia", "measured_precession")]
                 + ["precession.planet_precession"]
                 + [f"calibrate.{f}" for f in ("sweep_delta", "fit_delta", "invert_delta",
                                                "load_observations")]
                 + ["bodies.load_planets", "bodies.derive_orbit",
                    "forces.gr_precession_baseline"])
    for fn in functions:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    units.update({
        "orbit.integrate.steps_accepted": "count", "orbit.integrate.steps_rejected": "count",
        "orbit.integrate.accept_ratio": "ratio", "orbit.integrate.steps_per_orbit": "count",
        "orbit.integrate.us_per_step": "us", "orbit.integrate.samples": "count",
        "orbit.force_evals": "count", "orbit.detect_perihelia.found": "count",
        "orbit.detect_perihelia.missed": "count",
        "precession.planet_precession.us_per_call": "us",
        "calibrate.sweep_delta.rows": "count", "bodies.load_planets.records": "count",
        "forces.QuantizedModel.calls": "count",
        "trace.ops_per_pass": "count", "trace.spans": "count",
        "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
    })
    return units


# --- environment -------------------------------------------------------------------

def load_program():
    """Import qgrav from this checkout's src/, never from anywhere else."""
    init = ROOT / "src" / "qgrav" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no qgrav source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    qgrav = importlib.import_module("qgrav")
    if Path(qgrav.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported qgrav from {qgrav.__file__}, not from src/")
    return qgrav


def source_id() -> dict:
    """Git commit if the checkout has .git, and a digest of the measured source."""
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                sha = loose.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        sha = line.split()[0]
    digest = hashlib.sha256()
    src = ROOT / "src" / "qgrav"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".json")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("QGRAV_DATA_DIR", None)
    # Cache bytecode as an installed package would; the first child compiles.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def timed_child(ctx, code: str, reps: int) -> list[float]:
    """Seconds a snippet reports for itself, in `reps` fresh interpreters."""
    from spawn import run_child
    script = f"import time\n_t0 = time.perf_counter()\n{code}\nprint(repr(time.perf_counter() - _t0))"
    out = []
    for _ in range(reps):
        _, code_, stdout, stderr, _ = run_child([sys.executable, "-c", script], ctx.child_env,
                                                ROOT, ctx.workdir)
        if code_ != 0:
            raise RuntimeError(f"set-up snippet failed: {stderr.decode(errors='replace')[-300:]}")
        out.append(float(stdout.decode().strip().splitlines()[-1]))
    return out


def interpreter_floor(ctx, reps: int) -> float:
    from spawn import run_child
    return statistics.median(run_child([sys.executable, "-c", "pass"], ctx.child_env, ROOT,
                                       ctx.workdir)[0] for _ in range(reps))


def import_times(ctx, reps: int) -> tuple[float, float]:
    """Median cumulative import time of qgrav (+ qgrav.cli) and of numpy, from -X importtime."""
    from spawn import run_child
    totals, numpy_ = [], []
    for _ in range(reps):
        _, code, _, stderr, _ = run_child([sys.executable, "-X", "importtime", "-c", "import qgrav.cli"],
                                          ctx.child_env, ROOT, ctx.workdir)
        if code != 0:
            raise RuntimeError("import qgrav.cli failed in a child interpreter")
        cumulative = {}
        for line in stderr.decode().splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) * 1e-6)
        totals.append(cumulative.get("qgrav", 0.0) + cumulative.get("qgrav.cli", 0.0))
        numpy_.append(cumulative.get("numpy", 0.0))
    return statistics.median(totals), statistics.median(numpy_)


# --- measurement ---------------------------------------------------------------------

def run_ops(wl, indices, call, failures: dict, tracer=None) -> float:
    """Run and check operations in order; returns the seconds spent inside calls.

    ``failures`` maps a distinct operation to the first reason it failed.
    """
    busy = 0.0
    for k in indices:
        if tracer is not None:
            tracer.op_id = k
        start = time.perf_counter()
        try:
            out = call(k)
        except Exception as exc:      # the program raised: a failed operation
            busy += time.perf_counter() - start
            failures.setdefault(k, f"op {k}: {type(exc).__name__}: {exc}")
            continue
        busy += time.perf_counter() - start
        reason = wl.check(k, out)
        if reason is not None:
            failures.setdefault(k, f"op {k}: {reason}")
    return busy


def measure(wl, ctx, start: int, seconds: float, min_ops: int, failures: dict) -> list[float]:
    """Closed loop from operation `start` for `seconds` and at least `min_ops` operations."""
    latencies = []
    n = len(wl.ops)
    deadline = time.perf_counter() + seconds
    while len(latencies) < min_ops or time.perf_counter() < deadline:
        latencies.append(run_ops(wl, [(start + len(latencies)) % n], wl.call, failures))
    return latencies


def measure_in_worker(wl, ctx, start: int, seconds: float, min_ops: int,
                      failures: dict) -> list[float]:
    """The same loop in a fresh interpreter (worker.py); outputs are checked here."""
    from spawn import run_child
    job, result = ctx.workdir / "job.pickle", ctx.workdir / "result.pickle"
    job.write_bytes(pickle.dumps({"workload": wl.name, "ops": wl.ops, "start": start,
                                  "seconds": seconds, "min_ops": min_ops}))
    _, code, _, stderr, rss = run_child(
        [sys.executable, str(BENCH.relative_to(ROOT) / "worker.py"), str(job), str(result)],
        ctx.child_env, ROOT, ctx.workdir)
    if code != 0:
        raise RuntimeError(f"worker exited {code}: {stderr.decode(errors='replace')[-500:]}")
    wl.child_rss_kib = max(wl.child_rss_kib, rss)
    verdicts = {}
    with open(str(result) + ".outputs", "rb") as stream:
        while True:
            try:
                k, out = pickle.load(stream)
            except EOFError:
                break
            verdicts[k] = wl.check(k, out)
    samples = pickle.loads(result.read_bytes())
    for k, status in zip(samples["indices"], samples["status"]):
        reason = status if status is not None else verdicts[k]
        if reason is not None:
            failures.setdefault(k, f"op {k}: {reason}")
    return samples["latencies"]


def end_to_end(wl, ctx, seconds: float) -> tuple[dict, dict]:
    """The timed loop in SEGMENTS slices, with a set-up timing before each and after
    the last, so that set-up is sampled across the whole run like the operations."""
    segment = measure_in_worker if wl.in_process else measure
    needed = max(MIN_OPS, len(wl.ops))        # and at least one full pass
    latencies: list[float] = []
    failures: dict = {}
    setup: list[float] = []
    for s in range(SEGMENTS):
        setup += timed_child(ctx, wl.setup_code, 1)
        min_ops = needed - len(latencies) if s == SEGMENTS - 1 else 0
        latencies += segment(wl, ctx, len(latencies), seconds / SEGMENTS, min_ops, failures)
    setup += timed_child(ctx, wl.setup_code, 1)
    missing = [name for name in wl.produces if name not in wl.accuracy]
    if missing:
        raise RuntimeError(f"no passing operation gave {', '.join(missing)}")
    probed = [name for name in ACCURACY if name not in wl.produces]
    accuracy = {**probe_accuracy(ctx, probed), **{k: wl.accuracy[k] for k in wl.produces}}
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": deciles[8],
        "throughput_ops_per_s": len(latencies) / math.fsum(latencies),
        "peak_rss_mb": wl.peak_rss_mb(),
        **{name: accuracy[name] for name in ACCURACY},
    }
    detail = {"samples": len(latencies), "setup_s_samples": setup,
              "latency_quartiles_s": statistics.quantiles(latencies, n=4),
              "beyond_p90": sum(1 for x in latencies if x > deciles[8]),
              "accuracy_from_probe": probed}
    return metrics, {"attempted": len(wl.ops), "failures": failures, **detail}


ACCURACY = ("numeric_err_max_arcsec", "analytic_rel_err_max", "roundtrip_rel_err_max")


def probe_accuracy(ctx, names: list[str]) -> dict:
    """Accuracy metrics a workload's own outputs do not give, on a fixed probe.

    The contract asks every workload for every metric, so these come from a
    probe that is the same on every seed and is reported as such in the run
    record: ``planet_precession`` and ``invert_delta`` on the bundled
    planets, 32 deltas each, under both rules; ``measured_precession`` on
    the bundled planets at the paper's delta, tol 1e-12.
    """
    import inputs
    q, ref = ctx.qgrav, ctx.ref
    planets = inputs.bundled_planets()
    out = {}
    if "analytic_rel_err_max" in names or "roundtrip_rel_err_max" in names:
        grid = [10 ** (-3 + 5.5 * k / 31) for k in range(32)]
        analytic = roundtrip = 0.0
        for p in planets:
            el = q.PlanetElements(p.name, p.a, p.e, p.tau_days)
            for rule in map(q.QuantumRule, ("perihelion", "semiminor")):
                pairs = [(d, q.planet_precession(el, d, rule).per_century_arcsec) for d in grid]
                analytic = max(analytic, ref.max_rel_err(p.a, p.e, p.tau_days, rule.value, pairs))
                roundtrip = max(roundtrip, *(abs(q.invert_delta(el, v, rule) - d) / d
                                             for d, v in pairs))
        out.update(analytic_rel_err_max=analytic, roundtrip_rel_err_max=roundtrip)
    if "numeric_err_max_arcsec" in names:
        out["numeric_err_max_arcsec"] = max(
            abs(float(q.measured_precession(q.PlanetElements(p.name, p.a, p.e, p.tau_days),
                                            inputs.PAPER_DELTA, n_orbits=inputs.N_ORBITS,
                                            tol=1e-12).per_century_arcsec
                      - ref.exact(p.a, p.e, p.tau_days, inputs.PAPER_DELTA)[1]))
            for p in planets)
    return out


def traced(wl, ctx, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process passes over the distinct operations."""
    from tracer import Tracer
    n = len(wl.ops)
    tracer = Tracer()
    failures: dict = {}
    untraced_s, traced_s, self_s, total_s = [], [], [], []
    exact_counts, problem = None, None
    stdout_bytes = 0
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < 2 or time.perf_counter() < deadline:
        untraced_s.append(run_ops(wl, range(n), wl.call_in_process, failures))
        tracer.reset_totals()
        tracer.keep_spans = passes == 0
        tracer.install()
        try:
            traced_s.append(run_ops(wl, range(n), wl.call_in_process, failures, tracer))
        finally:
            tracer.uninstall()
        counts = tracer.exact_counts()
        if exact_counts is None:
            exact_counts = counts
        elif counts != exact_counts:
            problem = "exact counts differ between two traced passes of the same inputs"
        self_s.append(dict(tracer.self_s))
        total_s.append(dict(tracer.total_s))
        passes += 1
    if not wl.in_process:
        stdout_bytes = sum(len(wl.seen[k][0][1]) for k in range(n)) / n
    calls, counts = exact_counts

    def med(samples, name):
        return statistics.median(s.get(name, 0.0) for s in samples)

    floor = ctx.context["interpreter_floor_s"]
    import_s, import_numpy_s = import_times(ctx, CONTEXT_REPS)
    metrics = {"cli.interpreter_floor_s": floor, "cli.import_s": import_s,
               "cli.import_numpy_s": import_numpy_s,
               "cli.main_s": 0.0 if wl.in_process else statistics.median(untraced_s) / n,
               "cli.stdout_bytes": float(stdout_bytes)}
    for name, unit in per_layer_units().items():
        if name.endswith(".calls") and name != "forces.QuantizedModel.calls":
            metrics[name] = calls.get(name[:-6], 0)
        elif name.endswith(".self_s"):
            metrics[name] = med(self_s, name[:-7]) / n
    accepted = counts.get("orbit.integrate.steps_accepted", 0)
    rejected = counts.get("orbit.integrate.steps_rejected", 0)
    orbits = counts.get("orbit.integrate.radians", 0.0) / math.tau
    found = counts.get("orbit.detect_perihelia.found", 0)
    pp_calls = calls.get("precession.planet_precession", 0)
    metrics.update({
        "orbit.integrate.steps_accepted": accepted,
        "orbit.integrate.steps_rejected": rejected,
        "orbit.integrate.accept_ratio": accepted / (accepted + rejected) if accepted else 0.0,
        "orbit.integrate.steps_per_orbit": accepted / orbits if orbits else 0.0,
        "orbit.integrate.us_per_step": (med(self_s, "orbit.integrate") * 1e6 / (accepted + rejected)
                                        if accepted else 0.0),
        "orbit.integrate.samples": counts.get("orbit.integrate.samples", 0),
        "orbit.force_evals": counts.get("orbit.force_evals", 0),
        "orbit.detect_perihelia.found": found,
        "orbit.detect_perihelia.missed":
            counts.get("orbit.measured_precession.expected_perihelia", 0) - found,
        "precession.planet_precession.us_per_call":
            med(total_s, "precession.planet_precession") * 1e6 / pp_calls if pp_calls else 0.0,
        "calibrate.sweep_delta.rows": counts.get("calibrate.sweep_delta.rows", 0),
        "bodies.load_planets.records": counts.get("bodies.load_planets.records", 0),
        "forces.QuantizedModel.calls": calls.get("forces.QuantizedModel", 0),
        "trace.ops_per_pass": n,
        "trace.spans": tracer.write_spans(spans_path),
        "trace.overhead_s": (statistics.median(traced_s) - statistics.median(untraced_s)) / n,
        "trace.overhead_frac": statistics.median(traced_s) / statistics.median(untraced_s) - 1.0,
    })
    return metrics, {"attempted": n, "failures": failures, "passes": passes,
                     "problem": problem,
                     "exact_counts": {"calls": calls, "counts": counts},
                     "spans_file": str(spans_path.relative_to(ROOT))}


# --- entry point ----------------------------------------------------------------------

def make_context(name: str, seed: int, workdir: Path, qgrav) -> SimpleNamespace:
    from reference import Reference
    return SimpleNamespace(root=ROOT, qgrav=qgrav,
                           rng=random.Random(f"{name}:{seed}"),
                           workdir=workdir.relative_to(ROOT), child_env=child_env(),
                           ref=Reference())


def run_workload(name: str, seed: int, seconds: float, trace: int, qgrav) -> dict:
    """One run: inputs, reference self-check, measurement, and the run record."""
    import workloads
    from reference import ReferenceError, validate
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    workdir = BENCH / ".work" / f"{name}-s{seed}-t{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ctx = make_context(name, seed, workdir, qgrav)
        timed_child(ctx, "import qgrav.cli", 1)      # writes bytecode before anything is timed
        ctx.context = {"interpreter_floor_s": interpreter_floor(ctx, CONTEXT_REPS),
                       "import_numpy_s": statistics.median(
                           timed_child(ctx, "import numpy", CONTEXT_REPS))}
        problem = None
        try:
            validation = validate(ctx.ref, qgrav.measured_precession, qgrav.PlanetElements)
        except ReferenceError as exc:
            problem, validation = f"reference self-check failed: {exc}", {}
        wl = workloads.WORKLOADS[name](ctx)
        # Inputs, references and verified outputs live for the whole run; keep
        # them out of the collector's way so they do not tax the operations.
        gc.collect()
        gc.freeze()
        if trace:
            metrics, detail = traced(wl, ctx, seconds, results / f"spans-{name}-s{seed}.json.gz")
            traced_problem = detail.pop("problem")
            problem = problem or traced_problem
            units = per_layer_units()
        else:
            metrics, detail = end_to_end(wl, ctx, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = problem is None
    failures = list(detail.pop("failures").values())
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        **source_id(),
        "python": sys.version.split()[0], "numpy": importlib.import_module("numpy").__version__,
        "mpmath": importlib.import_module("mpmath").__version__,
        "nproc": len(os.sched_getaffinity(0)), **ctx.context,
        "reference_validation": validation, "distinct_ops": len(wl.ops),
        "correct": correct, "problem": problem, "failed": len(failures),
        "failure_examples": failures[:20], **detail,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    path = results / f"{name}-s{seed}-t{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    record["record_file"] = str(path.relative_to(ROOT))
    return record


def summary(record: dict) -> list[str]:
    lines = [f"qgrav benchmark  workload={record['workload']} seed={record['seed']} "
             f"seconds={record['seconds']} trace={record['trace']} sha={record['git_sha'][:12]} "
             f"source={record['source_sha256']}"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<44} {m['value']:<14.6g} {m['unit']}")
    attempted = record["attempted"]
    lines.append(f"  {'failed_frac':<44} {record['failed'] / attempted:<14.6g} ratio"
                 f"  ({record['failed']} of {attempted} distinct operations)")
    if "samples" in record:
        lines.append(f"  {'samples':<44} {record['samples']:<14d} count"
                     f"  ({record['beyond_p90']} beyond p90)")
    for example in record["failure_examples"][:5]:
        lines.append(f"  failed: {example}")
    if record["problem"]:
        lines.append(f"  NOT CORRECT: {record['problem']}")
    lines.append(f"  record: {record['record_file']}")
    return lines


def result_line(records: list[dict]) -> str:
    single = len(records) == 1
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(k if single else f"{r['workload']}/{k}"): m
                    for r in records for k, m in r["metrics"].items()},
    })


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH))
    import spawn
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    spawn.start()            # before qgrav, numpy and mpmath are loaded here
    try:
        qgrav = load_program()
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        records = []
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace, qgrav)
            print("\n".join(summary(record)), flush=True)
            records.append(record)
    finally:
        spawn.stop()
    print(result_line(records), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

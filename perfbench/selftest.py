"""Fast self-test of the benchmark harness at tiny input sizes.

    python3 perfbench/selftest.py

Checks, in about a minute:
  * BENCHMARK.json names exactly the metrics the harness prints, with units;
  * the reference's fixed-point first-order rows agree with mpf arithmetic;
  * the same seed gives identical inputs, exact counts and accuracy figures,
    and another seed gives different inputs;
  * a run prints the result line the benchmark contract asks for;
  * without the program's source the benchmark fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (needs the path above)

TINY = {"cli-analytic": {"n_specs": 4}, "cli-orbit-export": {"n_trajectories": 1},
        "numeric-precession": {"n_synthetic": 2}, "calibration-bulk": {"n_tasks": 1, "sizes": (4, 4)}}


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def benchmark_json_matches() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(declared == run.END_TO_END, f"end_to_end metrics differ: {declared} vs {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared == run.per_layer_units(), "per_layer metrics differ from the harness")
    import workloads
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "workload names differ from the harness")


def inputs_of(name: str, seed: int, qgrav) -> list:
    """Generated inputs of a workload as plain data, data files included."""
    import workloads
    with tempfile.TemporaryDirectory(dir=run.BENCH / ".work") as tmp:
        ctx = run.make_context(name, seed, Path(tmp), qgrav)
        wl = workloads.WORKLOADS[name](ctx, **TINY[name])
        ops = [asdict(op) for op in wl.ops]
        files = {p.name: p.read_text() for p in sorted(Path(tmp).iterdir())}
    text = json.dumps([ops, files], default=str)
    return json.loads(text.replace(str(Path(tmp).relative_to(run.ROOT)), "<workdir>"))


def repeat_run(name: str, seed: int, qgrav) -> tuple:
    """Exact counts of a traced pass and the accuracy of one full pass."""
    import workloads
    from tracer import Tracer
    with tempfile.TemporaryDirectory(dir=run.BENCH / ".work") as tmp:
        ctx = run.make_context(name, seed, Path(tmp), qgrav)
        wl = workloads.WORKLOADS[name](ctx, **TINY[name])
        failures: dict = {}
        tracer = Tracer()
        tracer.install()
        try:
            run.run_ops(wl, range(len(wl.ops)), wl.call_in_process, failures, tracer)
        finally:
            tracer.uninstall()
        return tracer.exact_counts(), dict(wl.accuracy), len(failures)


def contract_run() -> None:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "calibration-bulk",
                           "--seed", "3", "--seconds", "0.5"], capture_output=True, text=True,
                          cwd=run.ROOT, timeout=180)
    check(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
    check(result["correct"] is True and result["failed"] == 0, "calibration-bulk run not clean")
    check({k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END,
          "the result line does not carry every end-to-end metric with its unit")
    check(all(m["value"] > 0 for m in result["metrics"].values()), "a metric reads 0")


def fixed_point_matches_mpf() -> None:
    """The fixed-point first-order rows give the same errors as mpf arithmetic."""
    import random
    import mpmath
    from inputs import bundled_planets
    from reference import DPS, Reference
    ref, rng = Reference(), random.Random(7)
    for p in bundled_planets():
        for rule in ("perihelion", "semiminor"):
            for _ in range(20):
                delta = 10 ** rng.uniform(-3, 2.5)
                exact = ref.first_order_arcsec(p.a, p.e, p.tau_days, delta, rule)
                value = float(exact) * (1 + rng.uniform(-4e-16, 4e-16))
                with mpmath.workdps(DPS):
                    want = float(abs(value - exact) / exact)
                got = ref.max_rel_err(p.a, p.e, p.tau_days, rule, [(delta, value)])
                check(abs(got - want) <= 1e-30, f"fixed point {got!r} vs mpf {want!r}")


def no_source_fails() -> None:
    with tempfile.TemporaryDirectory(dir=run.BENCH / ".work") as tmp:
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-analytic",
                               "--seed", "1", "--seconds", "1"], capture_output=True, text=True,
                              cwd=tmp, timeout=180)
    check(proc.returncode != 0, "run.py succeeded without the program's source")
    check(not proc.stdout.strip(), "run.py printed a result without the program's source")


def main() -> int:
    qgrav = run.load_program()
    (run.BENCH / ".work").mkdir(exist_ok=True)
    benchmark_json_matches()
    fixed_point_matches_mpf()
    print("ok  fixed-point first-order rows match mpf arithmetic")
    for name in TINY:
        first, again, other = (inputs_of(name, 1, qgrav), inputs_of(name, 1, qgrav),
                               inputs_of(name, 2, qgrav))
        check(first == again, f"{name}: the same seed gave different inputs")
        check(first != other, f"{name}: seeds 1 and 2 gave the same inputs")
        a, b = repeat_run(name, 1, qgrav), repeat_run(name, 1, qgrav)
        check(a == b, f"{name}: exact counts or accuracy differ between runs: {a} vs {b}")
        check(sum(a[0][0].values()) > 0, f"{name}: the traced pass saw no calls")
        print(f"ok  {name}: inputs, exact counts and accuracy repeat "
              f"({sum(a[0][0].values())} calls, {a[2]} failed ops)")
    contract_run()
    print("ok  result line carries every end-to-end metric with its unit")
    no_source_fails()
    print("ok  without src/qgrav the benchmark exits nonzero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

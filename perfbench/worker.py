"""Timed closed loop of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py JOB RESULT

run.py writes JOB, a pickle of {"workload", "ops", "start", "seconds",
"min_ops"}, and reaps this process with wait4, so that ``peak_rss_mb`` is
the program's own memory: the interpreter, qgrav, and the output of the
operation in flight. The references, the checks and the stored outputs stay
in run.py. A run's timed loop is cut into slices, one worker each.

The loop cycles through the operations from index ``start`` until
``seconds`` have passed and at least ``min_ops`` operations are done. The
first output of each distinct operation is
appended to RESULT + ".outputs" as soon as it exists; a repeat is reduced
to a digest that must match the first one. RESULT receives the per-sample
operation index, latency and status (None, or why the sample failed).

The operation functions are defined here, and the traced run in run.py
calls the same ones.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def numeric_call(q, ops):
    from inputs import N_ORBITS
    elements = [q.PlanetElements(c.planet.name, c.planet.a, c.planet.e, c.planet.tau_days)
                for c in ops]

    def call(i):
        case = ops[i]
        return q.measured_precession(elements[i], case.delta, n_orbits=N_ORBITS, tol=case.tol)
    return call


def calibration_call(q, ops):
    def call(i):
        task = ops[i]
        rule = q.QuantumRule(task.rule)
        planets = q.load_planets(task.planets_path)
        observations = q.load_observations(task.observations_path)
        fit = q.fit_delta(observations, rule, planets)
        baselines = [q.gr_precession_baseline(el) for el in planets]
        lo, hi, steps = task.sweep
        sweeps = [q.sweep_delta(el, lo, hi, steps, rule) for el in planets]
        inverted = [[q.invert_delta(el, value, rule) for _, value in rows]
                    for el, rows in zip(planets, sweeps)]
        return planets, observations, fit, baselines, sweeps, inverted
    return call


CALLS = {"numeric-precession": numeric_call, "calibration-bulk": calibration_call}


def digest(out) -> bytes:
    return hashlib.sha256(pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)).digest()


def main(job_path: str, result_path: str) -> int:
    sys.path.insert(0, str(BENCH))
    job = pickle.loads(Path(job_path).read_bytes())
    import qgrav
    call = CALLS[job["workload"]](qgrav, job["ops"])
    n = len(job["ops"])
    indices, latencies, status = [], [], []
    seen: dict[int, bytes] = {}
    with open(result_path + ".outputs", "wb") as firsts:
        deadline = time.perf_counter() + job["seconds"]
        i = 0
        while i < job["min_ops"] or time.perf_counter() < deadline:
            k = (job["start"] + i) % n
            start = time.perf_counter()
            try:
                out = call(k)
            except Exception as exc:      # the program raised: a failed operation
                latencies.append(time.perf_counter() - start)
                status.append(f"{type(exc).__name__}: {exc}")
            else:
                latencies.append(time.perf_counter() - start)
                key = digest(out)
                if k not in seen:
                    seen[k] = key
                    pickle.dump((k, out), firsts, protocol=pickle.HIGHEST_PROTOCOL)
                    status.append(None)
                else:
                    status.append(None if key == seen[k] else
                                  "output changed on a repeat of the same input")
                del out
            indices.append(k)
            i += 1
    Path(result_path).write_bytes(pickle.dumps(
        {"indices": indices, "latencies": latencies, "status": status}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

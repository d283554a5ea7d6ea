"""The benchmark harness still runs against the program as it stands.

perfbench/selftest.py runs every workload at tiny sizes with the tracer
installed. It exits nonzero when the tracer's patches no longer fit, but
an operation that raises (say, on a record field src no longer has) only
shows in its "N failed ops" counts, so those are read here too.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    tail = (proc.stdout + proc.stderr)[-3000:]
    assert proc.returncode == 0, tail
    failed = re.findall(r"^ok  \S+: .*, (\d+) failed ops\)$", proc.stdout, re.M)
    assert failed and set(failed) == {"0"}, tail

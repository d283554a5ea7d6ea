"""Child processes of the benchmark, started from a small process forked at start-up.

When a process execs, Linux keeps the peak RSS of the address space it
leaves in the new program's ``ru_maxrss``. A child started straight from
run.py, which by then holds numpy, mpmath, the references and the stored
outputs, would therefore report run.py's memory, not its own. ``start()``
forks a server before any of that is loaded; ``run_child`` sends it each
command line over a pipe, and the children it starts report their own peak.
Without a server, ``run_child`` starts the child itself.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import tempfile
import time
from pathlib import Path

_server: tuple[int, object, object] | None = None     # (pid, requests, replies)


def _run(argv: list[str], env: dict, cwd: Path,
         scratch: Path) -> tuple[float, int, bytes, bytes, int]:
    """Run a process to completion: (seconds, exit code, stdout, stderr, max RSS in KiB).

    stderr goes to an anonymous temporary file so that only one pipe is read,
    and the child is reaped with wait4 to get its own resource usage.
    """
    with tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return seconds, proc.returncode, out, err.read(), usage.ru_maxrss


def _serve(requests, replies) -> None:
    """The server's loop: one request, one child, one reply, until the pipe closes."""
    while True:
        try:
            request = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = ("ok", _run(*request))
        except Exception as exc:
            reply = ("error", f"{type(exc).__name__}: {exc}")
        pickle.dump(reply, replies)
        replies.flush()


def start() -> None:
    """Fork the server. Call it before the process grows; pair it with ``stop``."""
    global _server
    req_r, req_w = os.pipe()
    rep_r, rep_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(req_w)
        os.close(rep_r)
        try:
            _serve(os.fdopen(req_r, "rb"), os.fdopen(rep_w, "wb"))
        finally:
            os._exit(0)
    os.close(req_r)
    os.close(rep_w)
    _server = (pid, os.fdopen(req_w, "wb"), os.fdopen(rep_r, "rb"))


def stop() -> None:
    """Close the server's pipe and wait until it has ended."""
    global _server
    if _server is None:
        return
    pid, requests, replies = _server
    _server = None
    requests.close()
    replies.close()
    os.waitpid(pid, 0)


def run_child(argv: list[str], env: dict, cwd: Path,
              scratch: Path) -> tuple[float, int, bytes, bytes, int]:
    """``_run`` in the server if one is running, else here."""
    if _server is None:
        return _run(argv, env, cwd, scratch)
    _, requests, replies = _server
    pickle.dump((argv, env, cwd, scratch), requests)
    requests.flush()
    status, result = pickle.load(replies)
    if status != "ok":
        raise RuntimeError(f"starting {argv[:3]} failed: {result}")
    return result

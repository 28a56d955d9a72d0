"""Run one qortho CLI invocation as a fresh interpreter and time it.

The child is reaped with ``os.wait4`` so its peak RSS is its own, not the
high-water mark over every child reaped so far that
``getrusage(RUSAGE_CHILDREN)`` would give.  A pidfd lets one ``poll`` loop
drain stdout and stderr and notice the exit without threads, and lets a
timeout kill exactly this child.
"""

import hashlib
import os
import select
import signal
import subprocess
import sys
import time
from typing import NamedTuple

_CHUNK = 1 << 16


class Outcome(NamedTuple):
    """What one invocation did: exit code, stdout digest, time and memory."""

    exit_code: int
    sha256: str
    wall_s: float
    peak_rss_mb: float
    timed_out: bool
    stderr: str


def child_env(src_dir):
    """Environment that makes ``python -m qortho`` import the given tree.

    Bytecode caching is left on, as a user's interpreter has it, so start-up
    time does not include compiling the package.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env.pop("QORTHO_FORMAT", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_timed(args, env, cwd, timeout_s):
    """Spawn ``sys.executable *args``; return an Outcome.

    Wall time runs from just before the spawn to the reaping of the child.
    A child still running after ``timeout_s`` is killed, reaped and reported
    with ``timed_out`` set; this never raises for a misbehaving child.
    """
    argv = (sys.executable,) + tuple(args)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    pidfd = os.pidfd_open(proc.pid)
    digest = hashlib.sha256()
    err = bytearray()
    timed_out = reaped = False
    try:
        poller = select.poll()
        streams = {proc.stdout.fileno(): digest.update,
                   proc.stderr.fileno(): err.extend}
        for fd in streams:
            poller.register(fd, select.POLLIN)
        poller.register(pidfd, select.POLLIN)
        exited = False
        deadline = t0 + timeout_s
        while streams or not exited:
            left = deadline - time.perf_counter()
            if left <= 0:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                timed_out = True
                break
            for fd, _ in poller.poll(left * 1000):
                if fd == pidfd:
                    exited = True
                    poller.unregister(pidfd)
                    continue
                data = os.read(fd, _CHUNK)
                if data:
                    streams[fd](data)
                else:
                    poller.unregister(fd)
                    del streams[fd]
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        reaped = True
    finally:
        if not reaped:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
        os.close(pidfd)
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, digest.hexdigest(), wall,
                   usage.ru_maxrss / 1024.0, timed_out,
                   err.decode("utf-8", "replace"))


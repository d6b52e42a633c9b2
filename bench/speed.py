"""Machine-speed calibration for timings taken on a shared, drifting machine.

On a small shared VM the same work can take 1.5 times as long from one
stretch of a few seconds to the next, in wall and CPU time alike, because
of load outside the VM; the slow stretches come and go per CPU. Each
timing is therefore scaled to a reference speed with a fixed probe of the
machine, run on the same CPU just before and after the timed work:
``reference_seconds = wall * REFERENCE_S / probe_seconds``.

The probe starts an empty Python interpreter. Of the probes tried (integer
loops, dict and sort loops, NumPy kernels, interpreter start) it tracked
the drift of the domepilot commands best, because, like them, it is
dominated by memory traffic: mapping, page faults, unmarshalling. A program
change does not touch the probe, so it moves reference seconds as it moves
wall time, while machine drift moves both the timing and the probe.

A probe only speaks for the moment it runs, so a long child is paused every
CHUNK_S, probed and resumed, and each stretch is scaled by the probes on
either side of it.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time

#: Seconds one probe takes at the reference speed.
REFERENCE_S = 0.075
CHUNK_S = 0.5


def calibrate() -> float:
    """Seconds to start and stop an interpreter that does nothing."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def scale(probes: list[float]) -> float:
    """Factor from wall seconds to reference seconds, from bracketing probes."""
    return REFERENCE_S / (sum(probes) / len(probes))


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so the probe runs where
    the timed work runs; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_timed(argv: list[str], timeout_s: float, chunked: bool = True,
              stamp: str | None = None, **popen):
    """Run a child to completion, probing the speed around each stretch.

    Returns (reference seconds, wait status, rusage, pauses), where pauses
    are the (stop, resume) times of the child on the monotonic clock in ns.
    With ``chunked`` false the child runs unpaused as one stretch. With
    ``stamp``, the child's environment variable of that name holds the
    monotonic clock in ns just before the spawn, after the first probe.
    """
    probe = calibrate()
    if stamp is not None:
        popen["env"] = dict(popen["env"], **{stamp: str(time.monotonic_ns())})
    proc = subprocess.Popen(argv, **popen)
    pidfd = os.pidfd_open(proc.pid)
    reference = wall = 0.0
    pauses = []
    try:
        while True:
            start = time.perf_counter()
            exited = bool(select.select([pidfd], [], [], CHUNK_S if chunked else timeout_s)[0])
            if not exited and not chunked:
                proc.kill()
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                exited = True
            elif not exited:
                os.kill(proc.pid, signal.SIGSTOP)
                state = os.waitid(os.P_PID, proc.pid,
                                  os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                exited = state.si_code != os.CLD_STOPPED
            stretch = time.perf_counter() - start
            stopped = time.monotonic_ns()
            after = calibrate()
            reference += stretch * scale([probe, after])
            wall += stretch
            probe = after
            if exited:
                break
            if wall > timeout_s:
                proc.kill()
            pauses.append((stopped, time.monotonic_ns()))
            os.kill(proc.pid, signal.SIGCONT)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()  # also ends a child left paused
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return reference, status, usage, pauses

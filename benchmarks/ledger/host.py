"""The host: how fast it is right now, who else is using it, and what it is.

Nothing in this module imports ``repro`` except :func:`provenance` (for
the effective kernels mode), so the yardstick measures the host and not
the program under test.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

__all__ = [
    "CONTENDED_FRAC",
    "CpuClock",
    "YARD_NOMINAL_MS",
    "Yardstick",
    "correction",
    "cpu_seconds",
    "peak_rss_mb",
    "provenance",
    "reap",
    "workers",
]

#: What one yardstick run took (ms) on the host the bounds were proven
#: on, in its quiet state (the block medians in AA_RESULTS.json, a
#: busy hour, run from 2.2 to 4.0 with the first percentile at 2.3).
#: Frozen: corrected times read "milliseconds on a host where the
#: yardstick takes this long", so changing it rescales every gated time.
YARD_NOMINAL_MS = 2.30

#: a block is contended when processes outside the benchmark's own
#: tree used more than this share of one core while it ran
CONTENDED_FRAC = 0.15

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Yardstick:
    """A fixed probe of host speed, run between timed operations:
    ``np.sort`` of one fixed 2^18-element int64 array.  It does not
    import ``repro``."""

    def __init__(self):
        rng = np.random.default_rng(0x5EED)
        self._data = rng.integers(0, 1 << 62, size=1 << 18, dtype=np.int64)

    def __call__(self) -> float:
        """Run once; milliseconds."""
        t0 = time.perf_counter()
        np.sort(self._data)
        return (time.perf_counter() - t0) * 1e3


def correction(yard_ms) -> float:
    """Factor that maps a block's measured times onto the nominal host:
    ``YARD_NOMINAL_MS`` over the median of the block's yardstick runs
    (1 when the block ran none)."""
    return YARD_NOMINAL_MS / statistics.median(yard_ms) if yard_ms else 1.0


def workers() -> list:
    """Live child processes: the pool of the block that is running."""
    return multiprocessing.active_children()


def reap(timeout_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has
    ended: surviving pool workers are killed and joined, then the
    ``multiprocessing`` resource tracker -- which otherwise outlives its
    parent by the moment it takes to notice the closed pipe, and is left
    an orphan -- is told to finish (its pipe closed) and waited for."""
    import gc
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    gc.collect()  # shm finalizers talk to the tracker: run them first
    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None or pid is None:
        return  # never started
    tracker._fd = tracker._pid = None
    os.close(fd)
    end = time.monotonic() + timeout_s
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return
        if done:
            return
        if time.monotonic() > end:
            os.kill(pid, signal.SIGKILL)
            end = float("inf")
        time.sleep(0.005)


class CpuClock:
    """CPU seconds used by everyone (``/proc/stat``) and by the
    benchmark's own process tree, so the difference is foreign load.

    The own-tree reading is exact only when no child is alive (children
    are folded into the parent's times when reaped), which is how the
    harness uses it: before a block's pool starts and after it closed.
    """

    @staticmethod
    def _busy_s() -> float:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()[1:]
        ticks = [int(x) for x in fields]
        # user nice system idle iowait irq softirq steal: everything but
        # idle and iowait is some process (or another guest) running
        busy = sum(ticks[:3]) + sum(ticks[5:8])
        return busy / _CLK_TCK

    @staticmethod
    def _own_s() -> float:
        t = os.times()
        return t.user + t.system + t.children_user + t.children_system

    def __init__(self):
        self._t0 = time.perf_counter()
        self._busy0 = self._busy_s()
        self._own0 = self._own_s()

    def foreign_frac(self) -> float:
        """Foreign CPU since construction, in cores (0.15 = 15 % of one
        core on average)."""
        wall = time.perf_counter() - self._t0
        foreign = (self._busy_s() - self._busy0) - (self._own_s() - self._own0)
        return max(0.0, foreign / wall) if wall > 0 else 0.0


def cpu_seconds(pids) -> float:
    """User + system CPU seconds used so far by the live processes
    ``pids`` (``/proc/<pid>/stat``)."""
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime + stime
        except (OSError, IndexError, ValueError):
            pass
    return ticks / _CLK_TCK


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Sum of the peak resident set sizes of this process and its live
    worker processes."""
    pids = [os.getpid()] + [c.pid for c in workers()]
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def _llc_bytes() -> int | None:
    best = None
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in base.glob("index*"):
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
            mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            nbytes = int(size.rstrip("KMG")) * mult
            if best is None or level > best[0]:
                best = (level, nbytes)
    except (OSError, ValueError):
        return None
    return best[1] if best else None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None  # an exported tree: do not let git search above it
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def provenance(root: Path, p: int, seed: int) -> dict:
    """What produced these numbers; attached to every output."""
    from repro.kernels import effective_mode, numba_available

    return {
        "commit": _git_commit(root),
        "nproc": nproc(),
        "p": p,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_available(),
        "kernels_mode": effective_mode(),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "seed": seed,
        "yard_nominal_ms": YARD_NOMINAL_MS,
        "llc_bytes": _llc_bytes(),
        "argv": sys.argv[1:],
    }

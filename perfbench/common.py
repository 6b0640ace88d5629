"""Paths, child-process plumbing and latency summaries shared by the
benchmark's scripts."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores, span files and logs (inside the checkout).
WORK = ROOT / ".perfbench_work"

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9)

#: What :func:`calibration_ms` reads at the usual speed of the machine
#: the benchmark was tuned on (a 2-vCPU Intel Xeon guest).  Times scaled
#: by it read as milliseconds at that speed.
REFERENCE_CALIBRATION_MS = 1.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def spawn(args: Sequence[str], log_path: Path, stdin: bool = False):
    """Start ``python3 <args>`` with stdout piped (the ready line comes
    from there) and stderr kept in ``log_path``."""
    log = open(log_path, "ab")
    try:
        return subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
    finally:
        log.close()


def wait_ready(proc, marker: str) -> Tuple[float, str]:
    """Block on the child's stdout until a line containing ``marker``;
    returns ``(perf_counter() at arrival, the line)``.  Raises if the
    child exits first."""
    while True:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"child exited with {proc.wait()} before printing {marker!r}"
            )
        if marker in line:
            return time.perf_counter(), line


def stop(proc, timeout: float = 60.0) -> int:
    """Wait for a child to end (SIGKILL after ``timeout`` seconds).  Its
    stdin is closed first, so a worker still waiting for a command
    reads end-of-file and leaves."""
    if proc.stdin is not None:
        proc.stdin.close()
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()
    finally:
        if proc.stdout is not None:
            proc.stdout.close()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the machine so far (Linux
    ``/proc/stat``): the share of time the hypervisor gave to others."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def _calibration_loop() -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(4000):
        key = i * 7919 % 8191
        table[key] = i
        total += table.get(key ^ 1, 0) + i * i % 7
    return total


def calibration_ms() -> float:
    """The current speed of the host: the median of three timings of a
    fixed pure-Python loop of integer arithmetic and dict stores and
    lookups (the kernel's staple operations; int keys, so the cyclic
    collector never sees them).  On a shared host this moves by a fifth
    within seconds while the program stays the same, and a battery's
    wall time moves with it."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop()
        runs.append((time.perf_counter() - start) * 1000.0)
    return sorted(runs)[1]


def percentile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_summary(values: List[float]) -> Dict[str, Optional[float]]:
    """Median and tail of latencies (ms; ``inf`` marks a failed or
    refused request, which misses every limit).  The tail is the highest
    of :data:`TAIL_PERCENTILES` with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    tail_p = None
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            tail_p = p
    return {
        "samples": n,
        "p50_ms": percentile(ordered, 50.0) if n else None,
        "tail_percentile": tail_p,
        "tail_ms": percentile(ordered, tail_p) if tail_p else None,
    }

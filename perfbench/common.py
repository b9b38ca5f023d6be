"""Shared helpers of the benchmark: statistics, peak memory, environment stamp.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import bisect
import math
import os
import platform
import re
import resource
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

#: Metric names are printed into the result line; keep them plain.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]; raises on an empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supports_percentile(count: int, q: float) -> bool:
    """True when ``count`` samples leave at least ten beyond percentile ``q``."""
    return count * (100.0 - q) / 100.0 >= 10.0


def room_for_another(started: float, done: int, seconds: float) -> bool:
    """Whether one more repetition of the average length ends within
    ``seconds`` of ``started`` (``perf_counter`` time)."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# ---------------------------------------------------------------------- #
# machine-speed normalization
# ---------------------------------------------------------------------- #
#: Time of one ``_reference_loop`` on the reference machine (2-core
#: x86_64 VM, Python 3.11.7) when it runs at full speed.
REFERENCE_S = 0.00045


def _reference_loop() -> float:
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(1000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0.0) + i * 0.5
        total += len(str(key))
    return total + sorted(table.values())[0]


class SpeedTracker:
    """Scales timings of pure computation to the reference machine's speed.

    Shared machines drift by a quarter or more in CPU speed over tens of
    seconds, alike for every process on them.  While a tracker is active
    a timer signal runs a fixed reference loop every ``interval`` seconds
    on the main thread and records how long it took.  :meth:`scaled`
    turns a raw interval ``(start, end)`` into the time the same work
    takes on the reference machine at full speed: the interval minus the
    probes that ran inside it, times ``REFERENCE_S`` over the mean probe
    time around it.  Values below the raw time mean the machine was slow.

    Timings are recorded as raw ``perf_counter`` pairs inside the timed
    code and scaled afterwards, so the tracker adds one probe per interval
    and nothing per operation.
    """

    def __init__(self, interval: float = 0.05, pad: float = 0.25) -> None:
        self._interval = interval
        self._pad = pad
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._busy: List[float] = [0.0]  # cumulative probe time
        self._previous = None

    def _probe(self, *_args) -> None:
        started = time.perf_counter()
        _reference_loop()
        spent = time.perf_counter() - started
        self.starts.append(started)
        self.durations.append(spent)
        self._busy.append(self._busy[-1] + spent)

    def __enter__(self) -> "SpeedTracker":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def _probe_time(self, start: float, end: float) -> float:
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        return self._busy[last] - self._busy[first]

    def factor(self, start: float, end: float, pad: Optional[float] = None) -> float:
        """Reference over observed speed for probes near ``[start, end]``."""
        pad = self._pad if pad is None else pad
        first = bisect.bisect_left(self.starts, start - pad)
        last = bisect.bisect_right(self.starts, end + pad)
        window = self.durations[first:last]
        if not window:
            nearest = min(max(first - 1, 0), len(self.durations) - 1)
            window = [self.durations[nearest]]
        return REFERENCE_S * len(window) / sum(window)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the raw interval would take on the reference machine."""
        return (end - start - self._probe_time(start, end)) * self.factor(start, end)


def _rss_mib(who: int) -> float:
    peak = resource.getrusage(who).ru_maxrss  # KiB on Linux, bytes on macOS
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB."""
    return _rss_mib(resource.RUSAGE_SELF)


def children_peak_rss_mib() -> float:
    """Largest peak RSS of any child process waited for so far, in MiB."""
    return _rss_mib(resource.RUSAGE_CHILDREN)


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git.

    Benchmark checkouts are usually exported trees with no ``.git``; the
    stamp then says ``unknown`` rather than guessing.
    """
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp(root: str, seed: int) -> Dict[str, object]:
    """Hardware and software facts every result carries."""
    return {
        "nproc": load_slots(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(root),
    }


def load_slots() -> int:
    """CPUs this process may use (``nproc``): the cap on load threads and connections."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1

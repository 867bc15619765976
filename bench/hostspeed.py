"""Host-speed scaling of the benchmark's timings.

The benchmark shares its host with other work, and the host's speed drifts
by a third or more over seconds to minutes.  A raw wall-clock time carries
that drift into every metric, and two runs of the same code then disagree
by more than any bound worth setting.

So a timed run also times a fixed reference kernel, pure Python that calls
no code of the package, once at the start and then every `WINDOW_S` seconds
between ops.  Each op's wall time is multiplied by

    (REFERENCE_S / k) ** SENSITIVITY

where k, the kernel's time around the op, is the mean of the samples at the
two ends of its window, and a sample is the fastest of `REPEATS` runs.  A
scaled time estimates the time the op would have taken on a host where a
kernel sample takes `REFERENCE_S`.  The kernel does not use the package, so
a change to the package moves scaled and wall times in the same proportion.
The kernel's table adds about 2 MB to every process's memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter

# A kernel sample's usual time on the host the first baseline was measured
# on (2-vCPU Intel Xeon, Python 3.11.7), so that scaled times there read
# close to wall times.
REFERENCE_S = 0.002
# When the host's speed changes, the workloads' op times move less than the
# kernel's time does.  Of the exponents 0, 0.5, 0.75 and 1, tried on two sets
# of ten runs per workload on that host, 0.75 kept both the spread within a
# set and the shift between the sets smallest over the three workloads
# (`scaling_study` in baseline.json).
SENSITIVITY = 0.75
WINDOW_S = 0.25
REPEATS = 3  # a sample is the fastest of this many back-to-back kernel runs


@dataclass(frozen=True)
class _Key:
    agents: tuple
    items: tuple


# A table the size of the package's enumeration cache, with keys like its
# markets: nested tuples under a frozen dataclass, hashed on every lookup.
_TABLE: dict[_Key, int] = {}
_PROBES: list[_Key] = []
for _i in range(4096):
    _key = _Key(tuple(f"a{j}" for j in range(_i % 5 + 2)),
                tuple((f"i{j}", j % 3) for j in range(_i % 7 + 2)) + (_i,))
    _TABLE[_key] = _i
    if _i % 4 == 0:
        _PROBES.append(_key)
    elif _i % 4 == 1:
        _PROBES.append(_Key(_key.agents, _key.items + (-1,)))  # a miss


def kernel() -> int:
    """Cache lookups, frozensets, grouping, a sort and a JSON dump: the kind
    of work the package does, with none of its code."""
    total = 0
    for key in _PROBES:
        hit = _TABLE.get(key)
        if hit is not None:
            total += hit
    groups: dict[frozenset, list] = {}
    for i in range(400):
        row = (i % 13, i % 7, i & 3)
        groups.setdefault(frozenset(row), []).append(row)
    for members, rows in sorted(groups.items(), key=lambda kv: len(kv[1])):
        total += len(members) + len(rows)
    doc = {"rows": [[i, i * 2, f"x{i}"] for i in range(60)]}
    return total + len(json.dumps(doc, sort_keys=True))


def factor(kernel_seconds: float) -> float:
    """The scale factor for times measured while a kernel sample took
    `kernel_seconds`."""
    return (REFERENCE_S / kernel_seconds) ** SENSITIVITY


def sample(repeats: int = REPEATS) -> float:
    """Seconds of the fastest of `repeats` kernel runs."""
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        kernel()
        best = min(best, perf_counter() - started)
    return best


class Clock:
    """Splits a timed loop into windows, with a kernel sample at each end."""

    def __init__(self):
        self.samples = [sample()]
        self.walls: list[float] = []  # wall seconds of each window, samples excluded
        self._window_start = perf_counter()

    def window(self) -> int:
        """Call before each op; returns the index of the op's window."""
        now = perf_counter()
        if now - self._window_start >= WINDOW_S:
            self.walls.append(now - self._window_start)
            self.samples.append(sample())
            self._window_start = perf_counter()
        return len(self.samples) - 1

    def close(self) -> list[float]:
        """End the last window; returns each window's scale factor."""
        self.walls.append(perf_counter() - self._window_start)
        self.samples.append(sample())
        return [factor((a + b) / 2.0) for a, b in zip(self.samples, self.samples[1:])]

"""Fixed yardsticks for the speed of the host.

The benchmark runs on a few cores of a shared host, whose speed drifts by
up to a factor of two over seconds to minutes: the same fixed calls, run
in one process, take up to twice as long in one minute as in the next,
and CPU time tracks wall time, so the process is slowed rather than
descheduled.  A wall-clock time from such a host says as much about the
neighbours as about grasstau.

A ``Reference`` times a fixed piece of work that never imports grasstau,
so no change to the library moves it, between the timed calls.  The
runner reports each call's time scaled to a host on which that work takes
its nominal time:

    scaled = raw * nominal / (median of the reference samples next to the call)

A faster or slower grasstau moves ``raw`` and leaves the reference alone,
so the scaled figure moves with it; a slower host moves both.  Two
references, each matched to the work it scales:

* ``KERNEL`` (in-process calls, set-up): ``kernel``, pure-Python exact
  arithmetic (sparse truncated polynomials over Fractions and mod 11),
  the kind of interpreter work grasstau does, sampled after every call.
* ``spawn(env)`` (CLI calls): a bare ``python3 -c pass`` child, sampled
  after every third call, since a CLI call is mostly process start.

On 2 vCPUs with Python 3.11.7, in quiet periods, the kernel took 1.0-1.1
ms and a bare child 38-40 ms; those are the nominal times, so there
scaled and wall-clock figures agree to within about ten percent.  On a
drifting host, the spread (IQR/median) of the p50 of a fixed set of
calls, taken per window, was: factorize, 5-s windows over 150 s, 0.11
raw and 0.02 scaled by the kernel; CLI calls, 4-s rounds over 90 s, 0.19
raw, 0.06 scaled by the kernel and 0.02 scaled by the bare child.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

ITERATIONS = 5
MAX_DEGREE = 4


class _Poly:
    """Sparse polynomial in two variables, truncated above MAX_DEGREE."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict):
        self.c = coeffs

    def __mul__(self, other: "_Poly") -> "_Poly":
        out = {}
        for (a0, a1), x in self.c.items():
            for (b0, b1), y in other.c.items():
                key = (a0 + b0, a1 + b1)
                if key[0] + key[1] <= MAX_DEGREE:
                    v = out.get(key)
                    out[key] = x * y if v is None else v + x * y
        return _Poly({k: v for k, v in out.items() if v})

    def __add__(self, other: "_Poly") -> "_Poly":
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, 0) + v
        return _Poly({k: v for k, v in out.items() if v})


_GRID = [(i, j) for i in range(3) for j in range(3)]
_A = _Poly({(i, j): Fraction(i - 2 * j + 1, 1 + (i + j) % 3) for i, j in _GRID})
_B = _Poly({(i, j): Fraction(3 * i + j - 4, 1 + (i * j) % 2) for i, j in _GRID})
_M = _Poly({(i, j): (5 * i + 7 * j + 1) % 11 for i, j in _GRID})


def kernel() -> tuple:
    s = _A
    for _ in range(ITERATIONS):
        s = s * _B + _A
    m = _M
    for _ in range(ITERATIONS):
        m = _Poly({k: v % 11 for k, v in (m * _M + _M).c.items()})
    return s.c, m.c


class Reference:
    """A sampler, its time at nominal host speed, and the number of timed
    calls between two samples."""

    NEIGHBOURS = 2  # a call is scaled by the 2 + 1 + 2 samples nearest to it

    def __init__(self, sample, nominal_s: float, every: int):
        self.sample = sample
        self.nominal_s = nominal_s
        self.every = every

    def due(self, position: int) -> bool:
        """Whether to sample after the call at this position of a round."""
        return position % self.every == self.every - 1

    def scale(self, times: list[float], refs: list[float]) -> list[float]:
        """Each time of a round scaled to nominal speed; ``refs`` are the
        samples taken in the same round, one after every ``every`` calls."""
        k = self.NEIGHBOURS
        return [t * self.nominal_s / statistics.median(refs[max(0, i // self.every - k): i // self.every + k + 1])
                for i, t in enumerate(times)]


def _time(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


KERNEL = Reference(lambda: _time(kernel), 0.001, 1)


def spawn(env: dict) -> Reference:
    argv = [sys.executable, "-c", "pass"]
    return Reference(lambda: _time(lambda: subprocess.run(argv, env=env, check=True)), 0.040, 3)

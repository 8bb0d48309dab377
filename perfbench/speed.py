"""The machine's speed, gauged alongside the requests.

On a shared virtual machine the same code runs up to a third faster or
slower from one minute to the next, as other tenants come and go; a fixed
loop shows it as well as the program does.  Over a 30-second run that drift
moves the raw latency and throughput medians by 20-40% between runs, far more
than any change worth detecting.

So the timed phase stops now and then, between two requests, to time one
slice of fixed work: the benchmark's own Goedel evaluator (`logic.py`) on a
fixed formula, the same kind of pure-Python work on Fractions and tuples that
godelforest does.  Its code never changes with the program under test.  For
workloads that run the library in this process, the slice runs here too.  For
`cli`, whose requests are child processes, each slice is a child process as
well (`python -c`, importing this module, then the same work), so that
interpreter start-up is gauged along with compute.  Each time the benchmark
reports is scaled by the reference slice time over the median slice time
near it, which gives it in seconds of a machine on which a slice takes the
reference time.  The raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import logic as L

#: Slices on each side of a request that gauge the speed while it ran.
NEIGHBOURS = 5


@dataclass(frozen=True)
class Mode:
    """How one workload's gauge slices run.  A child slice costs about
    fifteen times as much as one in this process, so it runs less often."""

    child: bool  # each slice is a `python -c` child process
    reference_s: float  # the slice time the scaled figures refer to
    every_s: float  # seconds between two slices in the timed phase
    bracket: int  # slices on each side of a set-up
    warm_up: int  # slices run, and not kept, before the first one kept


#: Reference times are about the slices' medians on a 2-vCPU x86_64 machine
#: at 2.1 GHz.  The machine's fast and slow spells last about a second, so
#: in-process slices are short and frequent.
IN_PROCESS = Mode(child=False, reference_s=0.005, every_s=0.1, bracket=40, warm_up=20)
CHILD = Mode(child=True, reference_s=0.090, every_s=0.5, bracket=4, warm_up=1)

_HERE = os.path.dirname(os.path.abspath(__file__))


def _slice_inputs():
    rng = random.Random("speed-gauge")
    ops = ("and", "or", "imp", "imp", "not", "iff")

    def grow(size):
        if size <= 1:
            return L.var(rng.randint(1, 4))
        op = rng.choice(ops)
        if op == "not":
            return ("not", grow(size - 1))
        k = rng.randint(1, size - 1)
        return (op, grow(k), grow(size - k))

    formula = grow(60)
    points = [tuple(Fraction(rng.randint(0, 12), 12) for _ in range(4)) for _ in range(24)]
    return formula, L.render(formula), points


_FORMULA, _TEXT, _POINTS = _slice_inputs()


def work() -> int:
    """One slice: parse the fixed formula and evaluate it at fixed points."""
    f = L.parse(_TEXT)
    if f != _FORMULA:
        raise RuntimeError("logic.parse does not read back logic.render")
    return sum(L.evaluate(f, p) == 1 for p in _POINTS)


def _child_slice() -> None:
    # Output pipes make the wait end at the child's exit; without them, a
    # wait with a timeout polls at up to 50 ms intervals.
    subprocess.run([sys.executable, "-c", "import speed; speed.work()"], cwd=_HERE,
                   check=True, capture_output=True, timeout=60)


class Gauge:
    """Slice times, with the moment each was taken."""

    def __init__(self, mode: Mode) -> None:
        self.mode = mode
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        for _ in range(mode.warm_up):
            self._slice()

    def _slice(self) -> None:
        (_child_slice if self.mode.child else work)()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._slice()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.spent += t1 - t0

    def due(self, now: float) -> bool:
        return not self.at or now - self.at[-1] >= self.mode.every_s

    def bracket(self, measure):
        """Call `measure()` between two runs of slices and return its result,
        the time it took and that time in reference seconds."""
        for _ in range(self.mode.bracket):
            self.sample()
        t0 = time.perf_counter()
        result = measure()
        t1 = time.perf_counter()
        for _ in range(self.mode.bracket):
            self.sample()
        return result, t1 - t0, (t1 - t0) * self.scale(t0, t1, self.mode.bracket)

    def scale(self, t0: float, t1: float, neighbours: int = NEIGHBOURS) -> float:
        """Factor that turns a time measured from t0 to t1 into reference
        seconds, from the median of the slices taken between t0 and t1 and
        the `neighbours` slices on each side."""
        lo = max(0, bisect.bisect_left(self.at, t0) - neighbours)
        hi = bisect.bisect_right(self.at, t1) + neighbours
        return self.mode.reference_s / statistics.median(self.took[lo:hi])

"""Timing at a reference speed on a machine whose speed drifts.

The 2-vCPU virtual machine this benchmark was written on slows down by up to
1.7x for a second or more at a time, on either vCPU and in CPU time as much
as in wall time, and returns to a steady full speed in between.  Over a
30-second run the share of slow time varies from almost none to most of it,
so the median wall time of whole repetitions moved by up to 30% from run to
run of the same code.

So the benchmark times small pieces of work and scales each by how fast the
machine was just then.  Before and after every piece it runs ``probe``, a
fixed half-millisecond of numpy scatter, small matrix products and Python
object churn (the program's own mix of work, but none of its code).  A
piece's local speed is the median probe time of the marks around it, and
its time at reference speed is its measured time × (``REFERENCE_PROBE_S`` ÷
local probe time).  ``REFERENCE_PROBE_S`` is the probe's time on that
machine at full speed, so the results read as seconds of that machine at
full speed.  The reference is a constant on purpose: the fastest probe of
a run moved by up to 12% from run to run, and scaling by it added that
noise back.

This module uses only the standard library and numpy; it never imports the
program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Probes on each side of a piece that set its local speed.
WINDOW = 8
# The probe's time at full speed on that machine (Python 3.11, numpy 2.4):
# about the fastest probe of a run, which ranged from 0.37 to 0.48 ms.
REFERENCE_PROBE_S = 4.0e-4

_RNG = np.random.default_rng(0)
_IDX = _RNG.integers(0, 256, 1024)
_SRC = _RNG.standard_normal((1024, 32))
_W = _RNG.standard_normal((32, 32)) / 8


class _Node:
    __slots__ = ("data", "parents")

    def __init__(self, data, parents):
        self.data = data
        self.parents = parents


def probe() -> None:
    """About half a millisecond of fixed work with no part of the program in it."""
    out = np.zeros((256, 32))
    np.add.at(out, _IDX, _SRC)
    x = _Node(out[:8], ())
    for _ in range(40):
        x = _Node(np.tanh(x.data @ _W) + 0.5, (x,))


class Marks:
    """Marks that cut one timed phase into pieces, each mark a timed probe.

    ``stamp`` notes the time, runs ``probe`` and notes the time again, so
    the probes are left out of the pieces between marks.  Stamp once before
    the phase, at every cut, and once after it.
    """

    def __init__(self):
        self.before: list[float] = []
        self.after: list[float] = []

    def stamp(self) -> None:
        self.before.append(time.perf_counter())
        probe()
        self.after.append(time.perf_counter())

    def pieces(self) -> list[float]:
        return [b - a for a, b in zip(self.after, self.before[1:])]

    def probes(self) -> list[float]:
        return [b - a for a, b in zip(self.before, self.after)]

    def total(self) -> float:
        """The phase's measured time, probes left out."""
        return sum(self.pieces())

    def scaled(self) -> list[float]:
        """Each piece's time at reference speed."""
        probes = self.probes()
        out = []
        for i, t in enumerate(self.pieces()):
            # piece i lies between marks i and i + 1
            local = statistics.median(probes[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            out.append(t * REFERENCE_PROBE_S / local)
        return out


def reference_time(reps: list[Marks]) -> float:
    """A repeated phase's time at reference speed: the sum over its pieces
    of each piece's median time at reference speed across the repetitions.

    One seed fixes the data, the initialisation and the shuffling, so piece
    k is the same work in every repetition.  If the repetitions were cut into
    different numbers of pieces, the median over repetitions of their summed
    times at reference speed instead.
    """
    scaled = [m.scaled() for m in reps]
    if len({len(s) for s in scaled}) != 1:
        return statistics.median(sum(s) for s in scaled)
    return sum(statistics.median(col) for col in zip(*scaled))

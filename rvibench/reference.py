"""Timing normalised for host drift, against a fixed reference computation.

The host's vCPU changes speed, within one process as well as between
processes: back-to-back 200-step samples of the reference below sit near
one of two levels (about 6 ms and 11 ms here) and switch between them every
quarter of a second or so.  A raw wall-clock rate therefore does not
repeat, and samples taken only before and after a one-second block miss
most of what happened inside it.

``Stopwatch`` therefore samples the reference on an interval timer while
the measured code runs.  Each tick runs a short slice of the reference
in the signal handler (in the main thread, between two bytecodes of the
program) and records how long it took.  Measured seconds exclude the
handler's own time, and each stretch of program time between two samples
is rescaled by ``nominal / measured`` of the samples around it: a host
running at half speed stretches both the program and the reference.

The reference is interpreter-bound work on small numpy arrays, the same
mix the solver stack spends its time on: Python-level calls, frozen
dataclass construction, tiny vector arithmetic, 3x3 symmetric
eigendecompositions, norms, and float-to-text formatting.  It does not
touch the program under test.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass

import numpy as np

# Thread CPU seconds the timed steps of one sample take at the host's fast
# level, the speed all normalised seconds are quoted at (README.md has figures).
NOMINAL_SAMPLE_S = 4.2e-4
WARM_STEPS = 6          # untimed steps that refill the caches the program used
SAMPLE_STEPS = 12       # timed reference steps per sample
TICK_S = 0.01           # sampling interval while measured code runs
BRACKET_SAMPLES = 3     # samples before and after a measurement


@dataclass(frozen=True)
class _Record:
    """A small immutable value object, like the program's Point and Tangent."""

    t: int
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float).reshape(-1))

    def row(self) -> str:
        return ",".join((str(self.t), repr(float(self.coords[0])), repr(float(self.coords[-1]))))


def _step(t: int, x: np.ndarray, m: np.ndarray, rows: list):
    c = float(np.clip(np.dot(x, x[::-1]), -1.0, 1.0))
    w = x - c * x[::-1]
    s = float(np.linalg.norm(w))
    theta = math.atan2(s, c)
    x = math.cos(theta) * x + math.sin(theta) * (w / (s + 1.0))
    rec = _Record(t, x / np.linalg.norm(x))
    rows.append(rec.row())
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    m = (vecs * np.exp(0.1 * np.tanh(vals))) @ vecs.T + 1e-3 * np.outer(rec.coords, rec.coords)
    return rec.coords, m


def reference_work(steps: int) -> int:
    """``steps`` steps of the reference; returns a value so nothing is skipped."""
    x = np.array([0.6, 0.0, 0.8])
    m = np.eye(3) + 0.1
    rows: list[str] = []
    for t in range(steps):
        x, m = _step(t, x, m, rows)
    return len("\n".join(rows))


class Stopwatch:
    """Measures code in reference-normalised seconds.

    ``samples`` holds (wall start, thread CPU seconds in all, thread CPU
    seconds of the timed steps) of every reference sample.  Only the steps
    after a short warm-up are timed: the first steps after the program ran
    pay for refilling caches, and that cost grows more than the program's
    own when the host is slow.  Samples are timed in the main thread's CPU
    time: if a numpy call inside one releases the interpreter lock and a
    worker thread of the program runs meanwhile, that time is not the
    reference's, and it is counted as program time instead.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False
        for _ in range(BRACKET_SAMPLES):       # warm numpy's code paths up
            reference_work(SAMPLE_STEPS)

    def sample(self) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        reference_work(WARM_STEPS)
        c1 = time.thread_time()
        reference_work(SAMPLE_STEPS)
        c2 = time.thread_time()
        self.samples.append((t0, c2 - c0, c2 - c1))

    def _bracket(self) -> None:
        for _ in range(BRACKET_SAMPLES):
            self.sample()

    def _tick(self, signum, frame) -> None:
        if not self._busy:                     # a late tick never nests
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def start(self) -> int:
        """Bracket samples, then sampling on a timer; returns a mark for ``stop``."""
        self._bracket()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return len(self.samples) - 1

    def stop(self, mark: int) -> tuple[float, float]:
        """End sampling and return (wall seconds, normalised seconds) since ``mark``."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._bracket()
        return self.between(mark, len(self.samples) - BRACKET_SAMPLES)

    def measure(self, fn):
        """Run ``fn()``; return (result, exception, wall s, normalised s).

        An exception is returned, not raised: the caller counts the
        operation as failed and goes on measuring.
        """
        mark = self.start()
        out = err = None
        try:
            out = fn()
        except Exception as exc:
            err = exc
        finally:
            wall, norm = self.stop(mark)
        return out, err, wall, norm

    def speed(self, i: int) -> float:
        """Normalised seconds per wall second at sample ``i``."""
        return NOMINAL_SAMPLE_S / self.samples[i][2]

    def between(self, first: int, last: int) -> tuple[float, float]:
        """Program time from the end of sample ``first`` to the start of ``last``.

        Each stretch between two consecutive samples is program time,
        rescaled by the mean speed of the two samples around it.
        """
        wall = norm = 0.0
        for i in range(first, last):
            gap = self.samples[i + 1][0] - self.samples[i][0] - self.samples[i][1]
            wall += gap
            norm += gap * 0.5 * (self.speed(i) + self.speed(i + 1))
        return wall, norm

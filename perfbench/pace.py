"""Fixed reference work that measures how fast the machine runs.

The shared machines this benchmark runs on change speed by up to a factor of
two, from one second to the next and for minutes at a time, for reasons
outside the process (its CPU time grows with its wall time, so the slowdown
is not time stolen by the hypervisor).  Pure-Python work of boxlab slows
down by nearly the same factor as a pure-Python loop run next to it.  So the
in-process workloads time this loop around and inside every operation and
scale the operation's time by ``NOMINAL_S`` over the loop's mean time: the
result is what the operation takes on a machine where the loop takes
``NOMINAL_S``.  It still moves one for one with the library's own cost, but
much less with the machine's state.

Inside an operation the loop runs from a timer signal every
``INTERVAL_S``, because the speed changes within one; its time is taken off
the operation's.  Python runs the handler between two bytecodes of the
library, and the loop touches no state of the library.

The loop is the benchmark's own code, independent of boxlab, so a change to
the library cannot change it.  It does what the library's exact LPs and
rank tests do: Gauss-Jordan elimination over Fractions.  Of the loops tried
(Fraction arithmetic, elimination, the search's bit-mask cover test, and
random memory reads), elimination followed the library's speed most closely.

A subprocess's time, mostly interpreter start and imports, follows that
loop poorly: scaling by it made subprocess times less steady.  It follows
another fresh interpreter closely.  So the subprocess operations (the CLI
calls and the set-up probes) are scaled by a reference child,
``python -c "import numpy"``, run between them (:class:`ChildPacer`).
numpy is boxlab's only dependency, not part of boxlab, so a change to the
library cannot change the reference either.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

#: What one reference loop takes on the machine the benchmark was defined
#: on (2 vCPUs of an Intel Xeon, Python 3.11), about halfway between its
#: fast and its slow state.
NOMINAL_S = 0.002
#: Loop runs before and after an operation; their median is one sample.
REPEATS = 5
#: Seconds between two loop runs inside an operation.
INTERVAL_S = 0.1

_ROWS = tuple(tuple(Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4)
                    for j in range(5)) for i in range(5))


def _rank(columns: tuple[int, ...]) -> int:
    rows = [[row[j] for j in columns] for row in _ROWS]
    rank = 0
    for col in range(len(columns)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                factor = row[col] / head[col]
                rows[i] = [a - factor * b for a, b in zip(row, head)]
        rank += 1
    return rank


def reference() -> int:
    """The loop: exact ranks of every 3-column subset of a 5x5 matrix."""
    ranks = {}
    for columns in itertools.combinations(range(5), 3):
        ranks[columns] = _rank(columns)
    return sum(ranks.values())


def timed_reference() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


def sample() -> float:
    """Median time of ``REPEATS`` reference loops, in seconds."""
    return statistics.median(timed_reference() for _ in range(REPEATS))


class Pacer:
    """Times the reference loop around and inside each operation.

    Call :meth:`begin` just before an operation starts and :meth:`end` with
    its measured time just after it ends.  ``raw`` keeps each operation's
    time without the loop runs inside it, ``scaled`` the same at the
    nominal speed, and ``loops`` every loop time taken.  With ``inside``
    False the loop runs only around operations (for traced runs, whose
    span times should not hold loop runs).
    """

    def __init__(self, inside: bool = True) -> None:
        self.interval = INTERVAL_S if inside else 0
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.loops: list[float] = []
        self._inside: list[float] = []
        self._before = 0.0

    def _tick(self, signum, frame) -> None:
        self._inside.append(timed_reference())

    def begin(self) -> None:
        self._before = sample()
        self._inside = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def end(self, elapsed: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        inside = self._inside
        net = elapsed - sum(inside)
        speeds = [self._before, *inside, sample()]
        self.loops += speeds
        self.raw.append(net)
        self.scaled.append(net * NOMINAL_S / statistics.mean(speeds))


#: The reference child process.
CHILD = (sys.executable, "-c", "import numpy")
#: What the reference child takes on the machine the benchmark was defined
#: on, about halfway between its fast and its slow state.
CHILD_NOMINAL_S = 0.2
#: A reference child runs before an operation when the last one is older.
CHILD_EVERY_S = 1.5
#: Reference children this close to an operation (seconds) set its speed.
CHILD_WINDOW_S = 4.0


class ChildPacer:
    """Times the reference child between subprocess operations.

    Call :meth:`due` before each operation and :meth:`sample` once after
    the last; :meth:`scale` then gives each operation's time at the
    nominal speed, from the mean of the reference children run within
    ``CHILD_WINDOW_S`` of it (at least the last one before it).
    """

    def __init__(self, cwd, env: dict) -> None:
        self.cwd = cwd
        self.env = env
        self.samples: list[tuple[float, float]] = []   # (end, seconds)

    def sample(self) -> None:
        start = perf_counter()
        subprocess.run(CHILD, cwd=self.cwd, env=self.env, check=True,
                       capture_output=True, timeout=60)
        end = perf_counter()
        self.samples.append((end, end - start))

    def due(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] \
                >= CHILD_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        near = [v for t, v in self.samples
                if start - CHILD_WINDOW_S <= t <= end + CHILD_WINDOW_S]
        if not near:
            near = [max(s for s in self.samples if s[0] <= start)[1]]
        return (end - start) * CHILD_NOMINAL_S / statistics.mean(near)

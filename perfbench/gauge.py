"""Machine-speed gauge: a fixed reference loop interleaved with the workload.

The benchmark shares a few cores of a host with other tenants.  Their load
changes how fast this process runs by up to a factor of two, both from one
millisecond to the next and in phases that last tens of seconds, so a run's
wall times say as much about the neighbours as about the library.  The
gauge runs a fixed pure-Python loop between items, for ``SHARE`` of the work
time, and divides each stretch of work (a *window*: at least
``WINDOW_NS`` of work, or one set-up step, or the rest of a pass) by how much
slower the loop ran right after it than ``REF_LOOP_NS``.  Work and loop slow
down together, so the quotient, the time the work takes at the reference
speed, is far steadier than the wall time: on a 2-vCPU Intel Xeon VM a pass
of 400 pipeline items varied by 25 % (interquartile range over median) in
wall time and by 3 % in reference time.  A change that makes the library
faster or slower moves the work and not the loop, so it shows in full.
The loop is the benchmark's own code and never calls the library.

An inactive gauge runs no loop and reports wall time (a factor of 1).
"""

from __future__ import annotations

from time import perf_counter_ns

LOOP_N = 400
OBJECTS_N = 60
# The loop's time at the reference speed: about its fastest time on the
# 2-vCPU Intel Xeon VM the benchmark was built on, so reference times are
# close to that machine's unloaded wall times.  A fixed constant; changing
# it rescales every reported time.
REF_LOOP_NS = 55_000
SHARE = 0.04
WINDOW_NS = 250_000_000
# A window closed on request (a set-up step, the end of a pass) may have had
# no loop inside it, so the loop then runs at least this share of its work
# and MIN_LOOPS times, which averages over the millisecond-scale swings.
CLOSE_SHARE = 0.5
MIN_LOOPS = 200


def reference_loop() -> int:
    """Integer arithmetic, then small tuples, strings, lists and a dict.
    Under the host's contention, object-heavy code (the sweep's checks and
    enumeration) slows down more than plain arithmetic does, and the
    solvers' bitmask search less than small-object work does.  In a 50 s
    probe the two halves together tracked both within about 7 %, where the
    arithmetic alone left the sweep 18 % apart."""
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    d: dict[str, int] = {}
    out = []
    for i in range(OBJECTS_N):
        t = (i, i & 7, str(i & 15))
        d[t[2]] = d.get(t[2], 0) + t[0]
        out.append(list(t[:2]))
    return s + len(sorted(d.items())) + len(out)


class Gauge:
    """Work time and slowdown factor of each closed window."""

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.work_ns: list[int] = []
        self.factors: list[float] = []
        self._work = 0
        self._loop_ns = 0
        self._loops = 0
        self._owed = 0.0
        self._last = perf_counter_ns()

    @property
    def window(self) -> int:
        """Index of the open window, the one the work since the last tick is in."""
        return len(self.factors)

    def resume(self) -> None:
        """Count work from now on; what ran since the last tick is left out."""
        self._last = perf_counter_ns()

    def tick(self, close: bool = False) -> None:
        """Add the work since the last tick to the open window, run the loop
        until it has had its share, and close the window when it is full or
        ``close`` asks for it."""
        work = perf_counter_ns() - self._last
        self._work += work
        if self.active:
            self._owed += SHARE * work
            while self._owed > 0 or (close and (self._loops < MIN_LOOPS or
                                                self._loop_ns < CLOSE_SHARE * self._work)):
                t0 = perf_counter_ns()
                reference_loop()
                dt = perf_counter_ns() - t0
                self._loop_ns += dt
                self._loops += 1
                self._owed -= dt
        if close or self._work >= WINDOW_NS:
            self.factors.append(self._loop_ns / (self._loops * REF_LOOP_NS) if self._loops else 1.0)
            self.work_ns.append(self._work)
            self._work = self._loop_ns = self._loops = 0
            self._owed = 0.0  # the next window runs its own loops
        self._last = perf_counter_ns()

    def reference_ns(self, ns: float, window: int) -> float:
        """``ns`` of work in ``window`` at the reference speed."""
        return ns / self.factors[window]

    def span_ns(self, first: int, end: int) -> float:
        """Work of windows ``first`` to ``end - 1`` at the reference speed."""
        return sum(self.work_ns[w] / self.factors[w] for w in range(first, end))

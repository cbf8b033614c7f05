"""Reference time: wall time scaled by a fixed loop timed on the same core.

The machine this benchmark was built on shares its two cores with other
tenants, and the speed of pure-Python code there drifts by a factor of
up to two between phases that last from seconds to minutes (README.md).
Wall times drift with it, so ten runs of unchanged code spread wider
than any useful bound.  The reference loop does the same kind of
interpreter work as the program (table lookups, integer arithmetic,
tuple and dict traffic) and imports nothing from it.  While the set-up
and the timed calls run, a background thread times the loop every
PERIOD seconds, and the process is pinned to one core for that stretch,
so the loop and the program share that core's speed.  Unpinned, the
loop can land on the other core and tracks nothing.

A stretch of wall time w during which the loop took l seconds counts
as w * REFERENCE_LOOP_S / l reference seconds: the time the stretch
would have taken on a core that runs the loop in exactly
REFERENCE_LOOP_S.  A stretch that holds MIN_SAMPLES samples or more
is cut at the midpoints between them and converted piece by piece, each
piece with the median of the five samples around it, so that a slow
phase inside one call counts for its own length.  A shorter stretch
takes l from the nine samples nearest to it.  No change to the program moves the loop, so
reference seconds go down exactly when the program gets faster.

The thread takes the interpreter lock for about 3% of the time, and it
must not run while the program forks pool workers: timed calls run at
workers=1.  While a child process runs on the pinned core, sampling is
paused (paused()), because the loop would share the core with the child
and read the child's load instead of the core's speed.
"""

import bisect
import contextlib
import os
import statistics
import threading
import time
from typing import List, Tuple

PERIOD = 0.1
MIN_SAMPLES = 9
SMOOTH = 2  # a piece's loop time is the median of samples i-2 .. i+2
# close to the loop's time on a quiet core of the build machine (its
# median was 1.38 ms in the fastest of forty runs, 2.9 ms in the slowest)
REFERENCE_LOOP_S = 0.0015
_EXP = [(7 * k + 3) % 251 for k in range(250)]
_LOG = [(11 * k) % 250 for k in range(251)]


def reference_loop(rounds: int = 4000) -> int:
    """A fixed 1.4 to 3 ms of interpreter work on the build machine."""
    exp, log = _EXP, _LOG
    acc, seen = 1, {}
    for i in range(rounds):
        a = exp[(log[acc] + i) % 250]
        b = exp[(log[a] * 3) % 250]
        pair = (a ^ b, i & 15)
        seen[pair] = seen.get(pair, 0) + 1
        acc = (a + b) % 251 or 1
    return len(seen) + acc


class SpeedProbe:
    """Pins the process to one core and samples the reference loop's time
    from a background thread until the with-block ends."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._lock = threading.Lock()
        self._cpus = None
        self._times: List[float] = []
        self._smooth: List[float] = []

    def _run(self) -> None:
        clock = time.perf_counter
        while True:
            with self._lock:
                t0 = clock()
                reference_loop()
                t1 = clock()
            self.samples.append(((t0 + t1) / 2.0, t1 - t0))
            if self._stop.wait(self.period):
                return

    @contextlib.contextmanager
    def paused(self):
        """No sample is taken inside the with-block; one in progress is
        finished first."""
        with self._lock:
            yield

    def __enter__(self) -> "SpeedProbe":
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)
        self.index()

    def index(self) -> None:
        """Sorts out the samples for reference_seconds()."""
        self._times = [t for t, _ in self.samples]
        durs = [d for _, d in self.samples]
        self._smooth = [statistics.median(durs[max(0, i - SMOOTH):i + SMOOTH + 1])
                        for i in range(len(durs))]

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The wall stretch [t0, t1] in reference seconds."""
        lo = bisect.bisect_left(self._times, t0)
        hi = bisect.bisect_right(self._times, t1)
        if hi - lo < MIN_SAMPLES:
            return (t1 - t0) * REFERENCE_LOOP_S / self.loop_seconds(t0, t1)
        times, total, start = self._times, 0.0, t0
        for i in range(lo, hi):
            end = t1 if i == hi - 1 else (times[i] + times[i + 1]) / 2.0
            total += (end - start) / self._smooth[i]
            start = end
        return total * REFERENCE_LOOP_S

    def loop_seconds(self, t0: float, t1: float) -> float:
        """Mean loop time over [t0, t1] without its top and bottom tenth;
        a window that holds fewer than MIN_SAMPLES widens on both sides."""
        times = self._times
        margin = 0.0
        while True:
            lo = bisect.bisect_left(times, t0 - margin)
            hi = bisect.bisect_right(times, t1 + margin)
            if hi - lo >= MIN_SAMPLES or (lo == 0 and hi == len(times)):
                break
            margin = margin * 2 or self.period
        durs = sorted(d for _, d in self.samples[lo:hi])
        if not durs:
            raise RuntimeError("the speed probe took no samples")
        cut = len(durs) // 10
        kept = durs[cut:len(durs) - cut]
        return sum(kept) / len(kept)

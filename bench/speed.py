"""Times at reference speed, corrected for the host's drifting speed.

The benchmark runs on shared machines whose speed drifts by 20% and more
over seconds to minutes with the load of other tenants, which would swamp a
10% change in plumbcap.  While a ``Sampler`` is active, a timer signal
every PERIOD_S runs a fixed chunk of pure-Python work in the benchmark's
own thread and records how long it took, so the samples are taken during
the very calls being timed.  A call's time at reference speed is its raw
time, less the time spent in samples, scaled by REFERENCE_CHUNK_S over the
median chunk time sampled during the call.

The chunk mimics the embedder's inner loop (small-int arithmetic, tuples as
dict keys, short lists) because work of that kind slows down with the host
the way plumbcap does.  It calls no Python function: the signal lands at
any depth of plumbcap's recursion, and a call there can cross a boundary of
the interpreter's frame stack and pay for an allocation that has nothing to
do with the host.  The chunk is the benchmark's own code, so a change to
plumbcap cannot move it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.005
# Median chunk time on the machine the benchmark was written on (a 2-vCPU
# VM, Python 3.11); it only sets the scale of the reported times.
REFERENCE_CHUNK_S = 1.2e-4
# A call with fewer samples of its own is scaled by its phase's speed.
MIN_SAMPLES = 10

_ROWS = tuple(tuple((i * j) % 3 - 1 for j in range(24)) for i in range(6))


class Sampler:
    def __init__(self):
        self.chunks: list[float] = []
        self.sampling = 0.0

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        classes = {}
        total = 0
        for k in range(24):
            history = []
            for row in _ROWS:
                history.append(row[k])
            key = tuple(history)
            if key not in classes:
                classes[key] = len(classes)
            row = _ROWS[k % 6]
            suffix = [0] * 25
            for j in range(23, -1, -1):
                suffix[j] = suffix[j + 1] + row[j] * row[j]
            for v in range(3, -4, -1):
                need = 9 - v * v
                if need * need <= 9 * suffix[k + 1]:
                    total += need * classes[key]
        chunk = perf_counter() - started
        self.chunks.append(chunk)
        self.sampling += perf_counter() - started

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """(result, raw seconds less sampling, chunk times sampled during)."""
        first, sampling = len(self.chunks), self.sampling
        started = perf_counter()
        result = fn(*args)
        raw = perf_counter() - started - (self.sampling - sampling)
        return result, raw, self.chunks[first:]


def at_reference_speed(timings: list[tuple[float, list[float]]]) -> list[float]:
    """Scale each (raw seconds, chunk samples) of one phase to reference
    speed; a call with too few samples of its own takes the phase's."""
    everything = [c for _, chunks in timings for c in chunks]
    if not everything:
        raise ValueError("no speed samples: the phase was shorter than %g s" % PERIOD_S)
    phase = statistics.median(everything)
    return [raw * REFERENCE_CHUNK_S / (statistics.median(chunks)
                                       if len(chunks) >= MIN_SAMPLES else phase)
            for raw, chunks in timings]

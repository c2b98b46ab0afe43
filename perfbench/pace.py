"""Pass time at a reference core speed, for timing on shared cores.

On a shared host the speed of a core drifts by up to ~40% over seconds to
minutes (load from other tenants, not from this process), so the wall time
of a pass says as much about the host as about the program.  A short fixed
probe, timed just before and just after each unit of a pass, measures how
fast the core runs at that moment; the unit's wall time divided by the mean
slowdown of the two probes around it is the unit's time at the reference
speed.  A unit does the same work in every pass, so ``paced_seconds`` takes
the median over passes of each unit's paced time and sums over the units.

Other tenants slow memory-bound and compute-bound code by different
amounts, so each workload names the probe kinds that match where its units
spend their time: ``LOOP`` (an interpreted Python loop), ``ARRAY`` (numpy
operations on arrays that stay in cache) and ``STREAM`` (numpy operations
streaming arrays much larger than the cache).  ``REF_S`` holds their median
times on the reference machine (2-core x86_64 Xeon, Python 3.11, numpy 2.4
with one OpenBLAS thread), so a paced time is the time the unit takes there
at its usual speed.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

LOOP, ARRAY, STREAM = "loop", "array", "stream"
REF_S = {LOOP: 1.5e-4, ARRAY: 4.4e-3, STREAM: 5.2e-3}

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))
_STACK = _rng.standard_normal((8, 32, 32))


@functools.cache
def _stream_arrays():
    # 8 MB each, allocated on first use so that workloads without this
    # probe keep their peak RSS
    source = _rng.standard_normal(1 << 20)
    return source, np.empty_like(source)


def _loop_s() -> float:
    # median of five, so that a loop cut by a context switch does not count
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(2000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _array_s() -> float:
    start = time.perf_counter()
    for _ in range(3):
        np.exp(1j * _STACK).sum()
        np.einsum("ij,kjl->kil", _MATRIX, _STACK).real.sum()
    return time.perf_counter() - start


def _stream_s() -> float:
    source, out = _stream_arrays()
    start = time.perf_counter()
    for _ in range(2):
        np.multiply(source, 1.0001, out=out)
        out.sum()
    return time.perf_counter() - start


_TIMERS = {LOOP: _loop_s, ARRAY: _array_s, STREAM: _stream_s}


def probe(kinds) -> float:
    """Slowdown of this core now against the reference (1.0 = reference
    speed), the mean over the probe ``kinds``."""
    return statistics.fmean(_TIMERS[kind]() / REF_S[kind] for kind in kinds)


def paced_seconds(passes) -> float:
    """``passes``: per pass, a list of ``(unit seconds, probe before, probe
    after)`` in unit order.  Returns the sum over units of the median paced
    time; every pass must hold the same units."""
    by_unit = zip(*passes, strict=True)
    return sum(
        statistics.median(seconds / ((before + after) / 2.0) for seconds, before, after in unit)
        for unit in by_unit
    )

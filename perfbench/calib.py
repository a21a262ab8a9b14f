"""Machine-speed reference for the camplan benchmark.

The host the benchmark runs on is shared, and its speed swings by 20-40% over
seconds to minutes, for every kind of code alike. `reference_seconds` times a
fixed piece of work that does not touch camplan, with the same mix of
operations camplan spends its time on: numpy on small arrays (the sweep),
plain Python loops and sorts over floats (candidate generation, the sweep's
scalar path) and a masked reduction over a boolean matrix of a few megabytes
(the greedy cover). A change to camplan cannot change its duration; a slower
moment of the host makes it slower. The run loop times it before every solve
and after the last, and divides each solve's time by the reference speed
around it.
"""
from __future__ import annotations

import time

import numpy as np

# Duration of one `reference_seconds` sample on the reference machine (a
# 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4). Times are reported in
# seconds at that speed. It only scales them; changing it, or the work below,
# makes results before and after the change incomparable.
REFERENCE_S = 0.035
PASSES, TIMINGS = 5, 3  # a sample is the fastest of TIMINGS timings of PASSES rounds

_rng = np.random.default_rng(12345)
_XY = _rng.random((200, 2)) * 100.0
_VALS = [float(v) for v in _rng.random(3000)]
_COVER = _rng.random((4000, 400)) < 0.02
_MASK = _rng.random(400) < 0.5


def _work() -> float:
    acc = 0.0
    for r in range(60):
        d = _XY - _XY[r]
        dist = np.hypot(d[:, 0], d[:, 1])
        ang = np.arctan2(d[:, 1], d[:, 0])
        near = np.nonzero(dist < 30.0)[0]
        order = np.argsort(ang[near], kind="stable")
        acc += float(ang[near][order].sum()) + float(np.cumsum(dist[near][order])[-1])
        s = 0.0
        for v in _VALS[r * 40: r * 40 + 600]:
            if v > 0.5:
                s += v * v
            else:
                s -= v
        acc += s + sorted(_VALS[r * 20: r * 20 + 200], key=lambda x: -x)[0]
    return acc + float(_COVER[:, _MASK].sum(axis=1).max())


def reference_seconds() -> float:
    """One sample: the fastest of TIMINGS timings of PASSES rounds of the fixed work."""
    best = float("inf")
    for _ in range(TIMINGS):
        t = time.perf_counter()
        for _ in range(PASSES):
            _work()
        best = min(best, time.perf_counter() - t)
    return best

"""Host-speed reference: fixed kernels timed next to the program.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 2x over tens of seconds as neighbours load it, which moves every
wall time the program shows by the same factor.  To keep the timing
metrics comparable across runs, the harness times this module's
reference — four fixed kernels that share none of the program's code —
before the first block and after every block, and divides each block's
times by the host-speed factor measured around it.

The factor is the geometric mean, over the kernels, of each kernel's time
over its nominal time (its time on the quiet host the nominal times were
taken on: an Intel Xeon VM with two vCPUs).  A value in ``ref_s`` is thus
the time the operation would take on that host; a change to the program
moves it, a change in host load does not.  The kernels mix the kinds of
work the program does: pure-Python arithmetic, pure-Python object work
(Box-Muller draws, a dict-and-heap shortest path), numpy array passes
(uint32 state twists, a max-plus pass over a DAG) and a small HiGHS MILP.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

_GRID = 40
_SETUP = np.random.default_rng(20170618)
_STATE = np.arange(624 * 1024, dtype=np.uint32).reshape(624, 1024)
_DURATIONS = _SETUP.random((128, 1024))
_PREDECESSORS = _SETUP.integers(0, 128, size=(128, 3))
_COSTS = -_SETUP.integers(1, 30, size=24)
_ROWS = _SETUP.integers(1, 20, size=(5, 24))


def _py_arith() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def _py_objects() -> int:
    draws = random.Random(7)
    values = []
    for _ in range(10_000):
        u1, u2 = draws.random(), draws.random()
        values.append(math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2))
    cost = {(i, j): 1 + (i * 7 + j * 13) % 5 for i in range(_GRID) for j in range(_GRID)}
    dist = {(0, 0): 0}
    heap = [(0, (0, 0))]
    while heap:
        d, (i, j) = heapq.heappop(heap)
        if d > dist[(i, j)]:
            continue
        for cell in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if cell in cost and d + cost[cell] < dist.get(cell, 1 << 30):
                dist[cell] = d + cost[cell]
                heapq.heappush(heap, (dist[cell], cell))
    return len(values) + len(dist)


def _np_arrays() -> float:
    state = _STATE.copy()
    for _ in range(4):
        y = (state[:-1] & 0x80000000) | (state[1:] & 0x7FFFFFFF)
        state[:-1] = state[1:] ^ (y >> 1) ^ ((y & 1) * 0x9908B0DF)
        state ^= state >> 11
    finish = np.zeros((128, 1024))
    for k in range(128):
        finish[k] = finish[_PREDECESSORS[k]].max(axis=0) + _DURATIONS[k]
    return float(finish.sum())


def _milp() -> float:
    result = milp(_COSTS, constraints=LinearConstraint(_ROWS, -np.inf, _ROWS.sum(axis=1) // 3),
                  integrality=np.ones(len(_COSTS)), bounds=Bounds(0, 1))
    return float(result.fun)


#: Kernel -> its nominal time in seconds (quiet-host times).
KERNELS: Dict[str, Tuple[Callable[[], object], float]] = {
    "py_arith": (_py_arith, 0.0155),
    "py_objects": (_py_objects, 0.0080),
    "np_arrays": (_np_arrays, 0.0250),
    "milp": (_milp, 0.0350),
}


def host_factor() -> float:
    """Host slowness now: geometric mean of kernel time / nominal time."""
    logs: List[float] = []
    for kernel, nominal in KERNELS.values():
        start = time.perf_counter()
        kernel()
        logs.append(math.log((time.perf_counter() - start) / nominal))
    return math.exp(sum(logs) / len(logs))


"""The reference kernel that the benchmark's round_ref metric is measured in.

A shared host's CPU speed can swing twofold within seconds and stay
changed for minutes, which moves every raw timing with it.  The runner
times this fixed kernel between operations and divides each operation's
CPU time by the kernel's CPU time around it, which cancels such swings.
The kernel does fixed work in the styles crossflow's hot paths use:
interpreter arithmetic, frozen-dataclass and enum dictionary lookups,
named-tuple building and sorting, float formatting into CSV, small numpy
ufunc calls and 4x4 linear solves.

Never change it: a change rescales round_ref for every later comparison.
"""

from __future__ import annotations

import csv
import enum
import gc
import io
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class _Side(enum.Enum):
    LEFT = 1
    MIDDLE = 2
    RIGHT = 3


@dataclass(frozen=True)
class _Pair:
    first: _Side
    second: _Side


class _Row(NamedTuple):
    t: float
    key: int
    zone: str
    p: float


_PAIRS = [(_Pair(a, b), _Pair(b, a)) for a in _Side for b in _Side]
_PAIR_INDEX = {pair: i for i, pair in enumerate(_PAIRS)}
_SYSTEM = [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0],
           [4.0 / 3.0, 2.0, 2.0, 1.0], [2.0, 2.0, 1.0, 0.0]]


def kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(6000):
        acc += (i * 0.5) ** 0.5 + len(str(i))
        table[i % 97] = acc
    for i in range(1500):
        key = _PAIRS[i % len(_PAIRS)]
        acc += _PAIR_INDEX[(_Pair(key[0].first, key[0].second), key[1])]
    rows = [_Row((i * 7919 % 1000) * 0.1, i % 50, "mz", i * 0.5) for i in range(3000)]
    rows.sort(key=lambda row: (row.t, row.key))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows[:600]:
        writer.writerow([format(row.t, ".9g"), str(row.key), row.zone, format(row.p, ".9g")])
    acc += len(buf.getvalue())
    x = np.linspace(0.0, 1.0, 20)
    for i in range(300):
        acc += float(((x * 1.5 + i) * x).sum())
    system = np.array(_SYSTEM)
    for i in range(250):
        acc += float(np.linalg.solve(system, np.array([0.0, i, 3.0, 1.0]))[0])
    return acc


def cpu_s() -> float:
    """CPU seconds of one kernel call, with the collector paused so that
    garbage left by the workload is not charged to the kernel."""
    gc.disable()
    try:
        start = time.process_time()
        kernel()
        return time.process_time() - start
    finally:
        gc.enable()

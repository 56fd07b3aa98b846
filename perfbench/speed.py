"""A fixed probe of how fast the machine runs the compiler's kind of code.

The benchmark runs on a few cores of a shared host.  Other tenants slow
every instruction by a factor that drifts over minutes (by 2x and more
within an hour), so two runs of the same code, minutes apart, differ by
more than any change worth measuring.  Each batch suite therefore runs
:func:`probe` before every compile and after the last one.  The probe is
the benchmark's own code, not the program's: the same work in every
run and on every commit.  The probes on either side of a compile say how
fast the machine was while it ran, and :func:`scale_between` scales its
time to what it would have been on a machine that runs the probe in
``REFERENCE_S``.  A change to the program moves the scaled times as much
as the raw ones; a slower host moves the probe too and cancels out.

The probe mixes what the compiler spends its time on: walking expression
trees of small objects with memo dictionaries and tuple keys (lifting,
lowering, query keys) and whole-array NumPy arithmetic over
bank-sized integer arrays (valuation banks, batched denotation).  The
garbage collector is off while it runs, so its time does not depend on
how much the compile before it left on the heap.

Usage (prints the probe time, five samples)::

    python3 perfbench/speed.py
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: probe seconds on the reference machine; :func:`factor` scales to it
REFERENCE_S = 0.010
#: probes on each side of a time that :func:`scale_between` averages
WINDOW = 2


class _Node:
    __slots__ = ("op", "kids", "value")

    def __init__(self, op, kids, value):
        self.op = op
        self.kids = kids
        self.value = value


def _tree(depth: int, index: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (), index)
    kids = (_tree(depth - 1, 2 * index), _tree(depth - 1, 2 * index + 1))
    return _Node("add" if index & 1 else "mul", kids, None)


_TREE = _tree(8, 1)
_LANES = np.arange(16 * 1024, dtype=np.int64)
# Written in place, so the probe's time does not include the allocator's.
_WIDE = np.empty_like(_LANES)


def _walk(node: _Node, memo: dict) -> int:
    if node.op == "leaf":
        return node.value
    key = (node.op, id(node))
    value = memo.get(key)
    if value is None:
        a = _walk(node.kids[0], memo)
        b = _walk(node.kids[1], memo)
        value = (a + b if node.op == "add" else a * b) & 0xFFFF
        memo[key] = value
    return value


def _work() -> int:
    total = 0
    for _ in range(40):
        total ^= _walk(_TREE, {})
    wide = _WIDE
    for step in range(128):
        shift = step % 8 + 1
        np.multiply(_LANES, 2 * step + 1, out=wide)
        np.add(wide, shift, out=wide)
        np.right_shift(wide, shift, out=wide)
        np.bitwise_and(wide, 0xFF, out=wide)
        total ^= int(wide.sum())
    return total


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples: list) -> float:
    """Scale from times measured alongside ``samples`` to the reference
    machine: below 1 when the machine ran slower than the reference."""
    return REFERENCE_S * len(samples) / sum(samples)


def scale_between(times: list, samples: list) -> list:
    """``times[i]`` scaled by the probes around it: ``samples[i]`` was
    taken just before it and ``samples[i + 1]`` just after.

    The host's speed changes within seconds, so each time is scaled by
    the speed around it rather than by the mean over a whole suite.  One
    probe varies by 15% from the next even on an idle host, so the speed
    is the mean of ``WINDOW`` probes on each side.
    """
    return [t * factor(samples[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            for i, t in enumerate(times)]


if __name__ == "__main__":
    probe()
    print(" ".join(f"{probe():.6f}" for _ in range(5)))

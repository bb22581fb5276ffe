"""The reference load: a fixed, stdlib-only measure of the host's speed.

While a measured ercd process runs, run.py calls probe() in its own
process, on the same CPU, every PROBE_PERIOD_S (run.py), and scales the
ercd times by the probes' CPU times. A host that runs everything slower
for a while then does not show as a slower ercd. The load must never
change: it is the yardstick that every commit's times are scaled by. It
imports nothing from ercd.

The load resembles the exact layer: products of 4x4 matrices of
Fractions, with the entries kept small so every round costs the same.
"""

import time
from fractions import Fraction

PROBE_ROUNDS = 12

_MATS = [tuple(tuple(Fraction((i * 7 + j * 3 + s) % 5 - 2, 1 + (i + j + s) % 3)
                     for j in range(4)) for i in range(4)) for s in range(16)]


def _matmul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(4)), Fraction(0))
                       for j in range(4)) for i in range(4))


def load(rounds: int):
    acc = _MATS[0]
    for r in range(rounds):
        acc = _matmul(acc, _MATS[r % 16])
        acc = tuple(tuple(Fraction(x.numerator % 97, x.denominator % 89 + 1)
                          for x in row) for row in acc)
    return acc


def probe() -> float:
    """CPU time of PROBE_ROUNDS rounds of the load, in seconds."""
    t0 = time.thread_time()
    load(PROBE_ROUNDS)
    return time.thread_time() - t0

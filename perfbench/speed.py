"""Correction of the benchmark's times for the speed of a shared host.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more within seconds (busy neighbours on the same physical cores,
clock changes).  Wall time and CPU time both follow the drift, so neither
hides it.  So a fixed unit of pure-Python work, which never calls egy, is
timed between ops, every ``EVERY_S`` seconds of op time.  Each op's time is
multiplied by the unit's reference time over the mean of the unit times just
before and just after it: the result is the op's time on a host that runs
the unit in its reference time.  A change to egy changes the op's time and
not the unit's, so it shows in full in the corrected time.
"""

from __future__ import annotations

import time
from fractions import Fraction

EVERY_S = 0.05


def _search_unit() -> int:
    """Search-like work: a scan with products and floor divisions of ~130-bit ints."""
    xn, xd = 0x9E3779B97F4A7C15F39CC0605CEDC835, (1 << 130) + 12345
    best_n, best_d = 1, 10**12
    a = xd // xn + 1
    for _ in range(1700):
        num = xn * a - xd
        b = (xd * a) // num + 1
        cn, cd = a + b, a * b
        if cn * best_d - best_n * cd > 0 and cn * xd < xn * cd:
            best_n, best_d = cn, cd
        a += 1
    return best_n


def _bigint_unit() -> int:
    """Mixed work led by big ints: small-int loops, Fraction sums, division of
    a thousand-digit int and a sort."""
    acc = 0
    for i in range(1, 5000):
        acc += (i * i) % 7
    total = Fraction(0)
    for i in range(2, 80):
        total += Fraction(1, i * (i + 1))
    big = 3 ** 2000
    for d in range(3, 50):
        big = (big // d) * d + 1
    pairs = sorted(((i * 7919) % 1009, i) for i in range(1200))
    return acc + total.denominator + big % 7 + pairs[0][1]


# Each unit with its reference time, about its median on a 2-core x86-64
# host.  A workload uses the unit whose work is most like its own: how much
# a busy host slows code down depends on the code, and with the other unit
# a workload's corrected times still follow the host's speed.
UNITS = {
    "search": (_search_unit, 1e-3),
    "bigint": (_bigint_unit, 1e-3),
}


def unit_s(unit: str) -> float:
    """Seconds the unit takes now."""
    work = UNITS[unit][0]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def corrected(unit: str, raw: float, before: float, after: float) -> float:
    """One raw time corrected with the unit times around it."""
    return raw * UNITS[unit][1] / ((before + after) / 2)


class Corrector:
    """Collects raw op times and turns them into corrected ones.

    ``add`` takes each op's raw time after the op; once ``EVERY_S`` seconds
    of op time have gathered, the unit is timed again and the gathered ops
    are corrected with this and the previous unit time.  ``finish``
    corrects what is left.  ``corrected`` is in the order of ``add``.
    """

    def __init__(self, unit: str):
        self.unit = unit
        self.corrected: list[float] = []
        self.units: list[float] = [unit_s(unit)]
        self._pending: list[float] = []
        self._since = 0.0

    def add(self, raw: float) -> None:
        self._pending.append(raw)
        self._since += raw
        if self._since >= EVERY_S:
            self._flush()

    def finish(self) -> None:
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        self.units.append(unit_s(self.unit))
        self.corrected.extend(corrected(self.unit, t, *self.units[-2:])
                              for t in self._pending)
        self._pending.clear()
        self._since = 0.0

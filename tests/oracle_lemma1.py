"""The Lemma-1 certificates in plain ``Fraction`` arithmetic, kept as the
oracle of the integer versions in ``egy.lemma1`` and ``egy.rational``.

These are the original implementations, unchanged but for their names:
the paper loop builds every x_k as a ``Fraction`` and checks each
inequality on ``Fraction`` values, the exact measure adds ``Fraction``
parts, ``fraction_sum`` is the pairwise ``Fraction`` summation, and
``min_competitors`` collects every competitor pair in a dict and sorts
it.  The direct loop, like the paper loop, takes every x_k from its own
``xk`` and checks it in ``Fraction`` arithmetic, with the kernel's
messages.  ``tests/test_lemma1.py`` and ``tests/test_kernels.py`` diff the
integer and streaming code against them, value for value and error
message for error message.
"""

from fractions import Fraction

from egy.lemma1 import CertificateError

_ONE_THIRD = Fraction(1, 3)


def fraction_sum(values):
    """Exact sum, pairwise-balanced, in Fraction arithmetic."""
    items = list(values)
    if not items:
        return Fraction(0)
    while len(items) > 1:
        nxt = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def xk(i, k):
    big = i * (i + 1)
    return Fraction(big * (big + 2 * k), big - 2 * k)


def _fractional_part(v):
    return v - (v.numerator // v.denominator)


def paper_lengths(i):
    """The selected right parts of the paper certificate, with every check.

    Unlike ``lemma1_certificate`` this does not refuse i < 1000, so the
    checks can be seen failing at small i.
    """
    big = i * (i + 1)
    lo = -((-big) // 100)  # ceil(N/100)
    hi = (3 * big) // 200
    count = hi - lo + 1
    if 200 * count < i * i:
        raise CertificateError(f"|L| = {count} < i^2/200 at i={i}")
    cap = Fraction(6 * i * i, 5)
    floor_bound = Fraction(25, 108 * i**4)
    lengths = []
    prev_cell = 0
    for l in range(lo, hi + 1):
        x_even = xk(i, 2 * l)
        x_odd = xk(i, 2 * l + 1)
        diff = x_odd - x_even
        if not Fraction(13, 3) <= diff <= Fraction(14, 3):
            raise CertificateError(
                f"difference {diff} outside [13/3, 14/3] at i={i}, l={l}"
            )
        for k, x_val in ((2 * l, x_even), (2 * l + 1, x_odd)):
            if _fractional_part(x_val) >= _ONE_THIRD:
                break
        else:
            raise CertificateError(
                f"no fractional part >= 1/3 in pair at i={i}, l={l}"
            )
        if x_val >= cap:
            raise CertificateError(f"x_k = {x_val} >= 6i^2/5 at i={i}, k={k}")
        floor_x = x_val.numerator // x_val.denominator
        cell = floor_x + 1
        if cell <= prev_cell:
            raise CertificateError(f"repeated cell j={cell} at i={i}, k={k}")
        prev_cell = cell
        length = Fraction(1, floor_x) - 1 / x_val
        if length <= floor_bound:
            raise CertificateError(
                f"right part {length} <= 25/(108 i^4) at i={i}, k={k}"
            )
        lengths.append(length)
    return lengths


def paper_certificate(i):
    """(certified measure, selected count) of paper mode."""
    lengths = paper_lengths(i)
    total = fraction_sum(lengths)
    if total * 1000 * (i - 1) * i <= 1:
        raise CertificateError(f"certified total {total} below 1 permille at i={i}")
    return total, len(lengths)


def direct_certificate(i):
    """(certified measure, term count) of direct mode: the right part
    1/floor(x_k) - 1/x_k of every non-integer x_k, k = 0..floor(N/10),
    once x_k >= N and x_k - x_(k-1) > 1 are checked."""
    big = i * (i + 1)
    parts = []
    prev = None
    for k in range(big // 10 + 1):
        x_val = xk(i, k)
        if x_val < big:
            raise ArithmeticError(f"x_k < i(i+1) at i={i}, k={k}")
        if prev is not None and x_val - prev <= 1:
            raise ArithmeticError(f"spacing x_k - x_(k-1) <= 1 at i={i}, k={k}")
        if x_val.denominator != 1:
            parts.append(Fraction(1, x_val.numerator // x_val.denominator) - 1 / x_val)
        prev = x_val
    return fraction_sum(parts), len(parts)


def min_competitors(i):
    """(j, s_num, s_den) per greedy cell j, sorted by j: the smallest
    competitor s = 1/a + 1/b of each cell, the first in a-order on ties."""
    if i < 2:
        raise ValueError(f"need i >= 2, got {i}")
    mins = {}
    for a in range(i + 1, 2 * i):
        # 1/b <= 1/(i-1) - 1/a  =>  b >= a(i-1)/(a-i+1)
        lo_num = a * (i - 1)
        lo = -(-lo_num // (a - i + 1))
        if lo <= a:
            lo = a + 1
        # 1/b > 1/i - 1/a  =>  b < ai/(a-i)
        hi = (a * i - 1) // (a - i)
        for b in range(lo, hi + 1):
            sn = a + b
            sd = a * b
            gap_den = i * sn - sd  # > 0 since s > 1/i
            j = (i * sd) // gap_den + 1
            cur = mins.get(j)
            if cur is None or sn * cur[1] < cur[0] * sd:
                mins[j] = (sn, sd)
    return [(j, nd[0], nd[1]) for j, nd in sorted(mins.items())]


def pair_count(i):
    """Every competitor pair by brute force: i < a < b with
    1/i < 1/a + 1/b <= 1/(i-1), where b < ai/(a-i) <= i(i+1)."""
    return sum(1 for a in range(i + 1, 2 * i) for b in range(a + 1, i * (i + 1))
               if i * (a + b) > a * b and (i - 1) * (a + b) <= a * b)


def measure_above_competitors(i, competitors):
    inv_i = Fraction(1, i)
    parts = []
    for j, s_num, s_den in competitors:
        right = inv_i + Fraction(1, j - 1)
        s = Fraction(s_num, s_den)
        if s < right:
            parts.append(right - s)
    return fraction_sum(parts)


def nongreedy_measure(i):
    """Exact measure of the non-greedy set N_i."""
    return measure_above_competitors(i, min_competitors(i))

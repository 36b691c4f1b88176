"""The Lemma-1 certificates in plain ``Fraction`` arithmetic, kept as the
oracle of the integer versions in ``egy.lemma1`` and ``egy.rational``.

These are the original implementations, unchanged but for their names:
the paper loop builds every x_k as a ``Fraction`` and checks each
inequality on ``Fraction`` values, the exact measure adds ``Fraction``
parts, and ``fraction_sum`` is the pairwise ``Fraction`` summation.
``tests/test_lemma1.py`` diffs the integer code against them, value for
value and error message for error message.
"""

from fractions import Fraction

from egy import _kernels
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
    """(certified measure, term count) of direct mode."""
    terms = _kernels.direct_mode_terms(i)
    return fraction_sum(Fraction(num, den) for _, num, den in terms), len(terms)


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
    return measure_above_competitors(i, _kernels.two_term_min_competitors(i))

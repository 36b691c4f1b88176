"""Certified lower bounds for the non-greedy two-term measure.

Every y in (1/i, 1/(i-1)] has greedy first term 1/i; the slice splits into
greedy cells C_j = (1/i + 1/j, 1/i + 1/(j-1)].  Points beaten by a two-term
competitor 1/a + 1/b (a > i) form the non-greedy set N_i.  Three routes to
its measure are provided:

* ``paper``  -- the pencil-and-paper certificate: competitors rewritten as
  1/i + 1/x_k with x_k = N(N+2k)/(N-2k), N = i(i+1); a selected family of
  pairwise-distinct cells whose right parts each exceed 25/(108 i^4), giving
  a total above one permille of the slice.  Valid for i >= 1000.
* ``direct`` -- the same construction summing the right part of every
  non-integer x_k, k = 0..floor(N/10).  A larger certified lower bound.
* ``exact``  -- full competitor enumeration: the exact measure of N_i.

All arithmetic is exact; any verification failure raises CertificateError
naming the violated inequality and its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .rational import format_rational, sum_exact

_ONE_THIRD = Fraction(1, 3)
_PERMILLE = Fraction(1, 1000)

MODES = ("paper", "direct", "exact")


class CertificateError(ArithmeticError):
    """A verification step of the certificate failed; message has a witness."""


@dataclass(frozen=True)
class Lemma1Report:
    i: int
    mode: str
    k_range_max: int
    selected_count: int
    certified_measure: Fraction
    interval_length: Fraction
    ratio: Fraction
    passed: bool

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "mode": self.mode,
            "selected_count": self.selected_count,
            "certified_measure": format_rational(self.certified_measure),
            "interval_length": format_rational(self.interval_length),
            "ratio": format_rational(self.ratio),
            "pass": self.passed,
        }


def xk(i: int, k: int) -> Fraction:
    """x_k = N(N + 2k)/(N - 2k) with N = i(i+1); 1/i + 1/x_k is the
    competitor 1/(i+1) + 1/(N/2 + k) rewritten against the greedy base."""
    if i < 2:
        raise ValueError(f"xk() needs i >= 2, got {i}")
    big = i * (i + 1)
    if not 0 <= k <= big // 10:
        raise ValueError(f"xk() needs 0 <= k <= {big // 10}, got {k}")
    return Fraction(big * (big + 2 * k), big - 2 * k)


def _fractional_part(v: Fraction) -> Fraction:
    return v - (v.numerator // v.denominator)


def _paper_certificate(i: int) -> tuple[Fraction, int]:
    if i < 1000:
        raise ValueError(f"paper mode needs i >= 1000, got {i}")
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
        # one of the pair must have fractional part >= 1/3, else the two
        # floors would be more than 14/3 apart
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
    total = sum_exact(lengths)
    if total * 1000 * (i - 1) * i <= 1:
        raise CertificateError(f"certified total {total} below 1 permille at i={i}")
    return total, count


def _direct_certificate(i: int) -> tuple[Fraction, int]:
    terms = _kernels.direct_mode_terms(i)
    total = sum_exact(Fraction(num, den) for _, num, den in terms)
    return total, len(terms)


def nongreedy_two_term_measure(i: int) -> Fraction:
    """Exact measure of the non-greedy set N_i in (1/i, 1/(i-1)].

    Competitors 1/a + 1/b need i < a < b (a <= i is dominated by the greedy
    choice, a >= 2i makes the sum too small) and land in the greedy cell
    C_j; everything in C_j above the cell's minimal competitor is non-greedy.
    A competitor equal to the cell's left endpoint ties greedy and
    contributes nothing (its cell part is empty).
    """
    if i < 2:
        raise ValueError(f"nongreedy_two_term_measure() needs i >= 2, got {i}")
    return _measure_above_competitors(i, _kernels.two_term_min_competitors(i))


def _measure_above_competitors(i: int, competitors: list[tuple[int, int, int]]) -> Fraction:
    """Measure of the parts of the greedy cells above their minimal
    competitors, as listed by ``two_term_min_competitors(i)``."""
    inv_i = Fraction(1, i)
    parts = []
    for j, s_num, s_den in competitors:
        right = inv_i + Fraction(1, j - 1)
        s = Fraction(s_num, s_den)
        if s < right:
            parts.append(right - s)
    return sum_exact(parts)


def _exact_certificate(i: int) -> tuple[Fraction, int]:
    competitors = _kernels.two_term_min_competitors(i)
    return _measure_above_competitors(i, competitors), len(competitors)


def lemma1_certificate(i: int, mode: str = "paper") -> Lemma1Report:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if i < 2:
        raise ValueError(f"lemma1_certificate() needs i >= 2, got {i}")
    if mode == "paper":
        measure, selected = _paper_certificate(i)
    elif mode == "direct":
        measure, selected = _direct_certificate(i)
    else:
        measure, selected = _exact_certificate(i)
    interval = Fraction(1, (i - 1) * i)
    if not 0 <= measure <= interval:
        raise CertificateError(
            f"measure {measure} outside [0, {interval}] at i={i}, mode={mode}"
        )
    ratio = measure / interval
    return Lemma1Report(
        i=i,
        mode=mode,
        k_range_max=(i * (i + 1)) // 10,
        selected_count=selected,
        certified_measure=measure,
        interval_length=interval,
        ratio=ratio,
        passed=ratio >= _PERMILLE,
    )

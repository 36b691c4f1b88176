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

All arithmetic is exact and on integers: each check is a cross-multiplied
inequality on x_k = p/q, each mode's terms stream as raw (num, den)
pairs, not reduced, into the summation stack of ``egy.rational`` as they
are produced, and the certified measure becomes a ``Fraction`` once, at
the end.  A mode's selected count is the number of pairs it sums: one
per l (paper), per non-integer x_k (direct) or per greedy cell, empty
parts included (exact).  The denominators are a small power of i (67
bits for the paper and direct terms at i = 2048), far below the 1024
bits from which ``sum_pairs`` wants pairs reduced, so it reduces them by
one gcd per run of terms.  No mode holds its terms or competitors in a list: a
certificate keeps O(i) state besides its result.  Any verification
failure raises CertificateError naming the violated inequality and its
witness, at the term where it happens.  The enumerations are charged to
the node budget, in closed form, before they start.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from . import _kernels
from .rational import _Record, _shown, format_rational, format_rational_scaled, sum_pairs
from .search import _Budget

_PERMILLE = Fraction(1, 1000)

MODES = ("paper", "direct", "exact")


class CertificateError(ArithmeticError):
    """A verification step of the certificate failed; message has a witness."""


class Lemma1Report(_Record):
    i: int
    mode: str
    selected_count: int
    certified_measure: Fraction
    interval_length: Fraction
    ratio: Fraction
    passed: bool

    def to_dict(self) -> dict:
        # the ratio is the measure times (i-1) i: one conversion prints both
        measure, ratio = format_rational_scaled(self.certified_measure, (self.i - 1) * self.i)
        return {
            "i": self.i,
            "mode": self.mode,
            "selected_count": self.selected_count,
            "certified_measure": measure,
            "interval_length": format_rational(self.interval_length),
            "ratio": ratio,
            "pass": self.passed,
        }


def xk(i: int, k: int) -> Fraction:
    """x_k = N(N + 2k)/(N - 2k) with N = i(i+1); 1/i + 1/x_k is the
    competitor 1/(i+1) + 1/(N/2 + k) rewritten against the greedy base."""
    if type(i) is not int or i < 2:  # a bool is no count
        raise ValueError(f"xk() needs i >= 2, got {_shown(i)}")
    big = i * (i + 1)
    if type(k) is not int or not 0 <= k <= big // 10:
        raise ValueError(f"xk() needs 0 <= k <= {format_rational(big // 10)}, got {_shown(k)}")
    return Fraction(big * (big + 2 * k), big - 2 * k)


def _paper_range(i: int) -> tuple[int, int]:
    """The l of the paper certificate: ceil(N/100) .. floor(3N/200)."""
    big = i * (i + 1)
    return -((-big) // 100), (3 * big) // 200


def _paper_terms(i: int) -> Iterator[tuple[int, int]]:
    """The selected right parts of the paper certificate, as raw pairs.

    For each l in [ceil(N/100), floor(3N/200)] one of x_2l, x_2l+1 is
    picked and checked, and its right part is yielded before the next l
    is looked at.  Like ``_kernels.iter_direct_terms`` it works on
    x_k = p/q with p = N(N + 2k), q = N - 2k and cross multiplies every
    inequality, so a ``Fraction`` is built only for a failing witness.
    """
    big = i * (i + 1)
    lo, hi = _paper_range(i)
    count = hi - lo + 1
    if 200 * count < i * i:
        raise CertificateError(f"|L| = {count} < i^2/200 at i={i}")
    cap = 6 * i * i          # x_k < 6i^2/5  <=>  5p < 6i^2 q
    floor_bound = 108 * i**4  # right part > 25/(108 i^4)
    prev_cell = 0
    for l in range(lo, hi + 1):
        q_even = big - 4 * l
        p_even = big * (big + 4 * l)
        q_odd = q_even - 2
        p_odd = p_even + 2 * big
        # x_odd - x_even = dn/dd must lie in [13/3, 14/3]
        dn = p_odd * q_even - p_even * q_odd
        dd = q_even * q_odd
        if not 13 * dd <= 3 * dn <= 14 * dd:
            raise CertificateError(
                f"difference {format_rational(Fraction(dn, dd))} outside [13/3, 14/3] at i={i}, l={l}"
            )
        # one of the pair must have fractional part >= 1/3, else the two
        # floors would be more than 14/3 apart
        if 3 * (p_even % q_even) >= q_even:
            k, p, q = 2 * l, p_even, q_even
        elif 3 * (p_odd % q_odd) >= q_odd:
            k, p, q = 2 * l + 1, p_odd, q_odd
        else:
            raise CertificateError(
                f"no fractional part >= 1/3 in pair at i={i}, l={l}"
            )
        if 5 * p >= cap * q:
            raise CertificateError(f"x_k = {format_rational(Fraction(p, q))} >= 6i^2/5 at i={i}, k={k}")
        floor_x = p // q
        cell = floor_x + 1
        if cell <= prev_cell:
            raise CertificateError(f"repeated cell j={cell} at i={i}, k={k}")
        prev_cell = cell
        # 1/floor(x_k) - 1/x_k = (p - floor_x q)/(floor_x p)
        num = p - floor_x * q
        den = floor_x * p
        if floor_bound * num <= 25 * den:
            raise CertificateError(
                f"right part {format_rational(Fraction(num, den))} <= 25/(108 i^4) at i={i}, k={k}"
            )
        yield num, den


def _counted_sum(pairs: Iterable[tuple[int, int]]) -> tuple[Fraction, int]:
    """The exact sum of the pairs and how many there were."""
    count = 0

    def counted() -> Iterator[tuple[int, int]]:
        nonlocal count
        for pair in pairs:
            count += 1
            yield pair

    return sum_pairs(counted()), count


def _paper_certificate(i: int) -> tuple[Fraction, int]:
    total, count = _counted_sum(_paper_terms(i))
    if total.numerator * 1000 * (i - 1) * i <= total.denominator:
        raise CertificateError(f"certified total {format_rational(total)} below 1 permille at i={i}")
    return total, count


def nongreedy_two_term_measure(i: int, node_budget: int | None = None) -> Fraction:
    """Exact measure of the non-greedy set N_i in (1/i, 1/(i-1)].

    Competitors 1/a + 1/b need i < a < b (a <= i is dominated by the greedy
    choice, a >= 2i makes the sum too small) and land in the greedy cell
    C_j; everything in C_j above the cell's minimal competitor is non-greedy.
    A minimal competitor at its cell's right end, the greedy value of the
    cell above, contributes nothing (its cell part is empty).  Spends one
    unit of node_budget per enumerated pair (a, b).
    """
    if type(i) is not int or i < 2:  # a bool is no count
        raise ValueError(f"nongreedy_two_term_measure() needs i >= 2, got {_shown(i)}")
    return exact_measure(range(i, i + 1), node_budget, f"the exact measure at i={format_rational(i)}")[0]


def exact_measure(slices: range, node_budget: int | None, what: str) -> tuple[Fraction, int]:
    """The total measure of the non-greedy sets N_i over the slices i, and
    the number of pairs it sums: one per greedy cell that
    ``iter_min_competitors`` yields, empty parts included (a minimal
    competitor at its cell's right end; about 1% of the cells).

    First one unit per competitor pair (a, b) of every slice is charged,
    before any slice is enumerated: the count is closed form per a and
    stops once it passes the budget.  Then every slice's parts of the cells
    above their minimal competitors stream into one exact sum.
    """
    budget = _Budget(node_budget)
    need = 0
    for i in slices:
        need += _kernels.competitor_pairs(i, budget.left - need)
        if need > budget.left:
            break
    budget.require(need, what)

    def parts() -> Iterator[tuple[int, int]]:
        for i in slices:
            for j, s_num, s_den in _kernels.iter_min_competitors(i):
                # 1/i + 1/(j-1) - s_num/s_den over the common denominator i(j-1) s_den
                right_den = i * (j - 1)
                yield (i + j - 1) * s_den - s_num * right_den, right_den * s_den

    return _counted_sum(parts())


def lemma1_certificate(i: int, mode: str = "paper", node_budget: int | None = None) -> Lemma1Report:
    """The mode's certified lower bound on the measure of N_i.

    Spends one unit of node_budget per l (paper), per k (direct) or per
    enumerated pair (a, b) (exact).  The counts are closed form and are
    charged before the enumeration starts, which holds O(i) state.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if type(i) is not int or i < 2:  # a bool is no count
        raise ValueError(f"lemma1_certificate() needs i >= 2, got {_shown(i)}")
    what = f"the {mode} certificate at i={format_rational(i)}"
    if mode == "paper":
        if i < 1000:
            raise ValueError(f"paper mode needs i >= 1000, got {format_rational(i)}")
        lo, hi = _paper_range(i)
        _Budget(node_budget).require(hi - lo + 1, what)
        measure, selected = _paper_certificate(i)
    elif mode == "direct":
        _Budget(node_budget).require(i * (i + 1) // 10 + 1, what)
        measure, selected = _counted_sum((num, den) for _, num, den in _kernels.iter_direct_terms(i))
    else:  # exact_measure charges its own budget
        measure, selected = exact_measure(range(i, i + 1), node_budget, what)
    interval = Fraction(1, (i - 1) * i)
    if not 0 <= measure <= interval:
        raise CertificateError(f"measure {format_rational(measure)} outside "
                               f"[0, {format_rational(interval)}] at i={i}, mode={mode}")
    ratio = measure / interval
    return Lemma1Report(
        i=i,
        mode=mode,
        selected_count=selected,
        certified_measure=measure,
        interval_length=interval,
        ratio=ratio,
        passed=ratio >= _PERMILLE,
    )

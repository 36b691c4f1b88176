"""Greedy n-term Egyptian underapproximation.

At each step the largest unit fraction *strictly* below the remaining gap is
taken: m_k = floor(1/gap) + 1.  The "+1" keeps the approximation strict even
when the reciprocal gap is an integer, and it forces the denominators to be
strictly increasing (after choosing m_k the gap drops below
1/(m_k(m_k - 1))).
"""

from __future__ import annotations

from fractions import Fraction

from .rational import ZERO, EgyptianRep, format_rational, harmonic

# The largest level (term count) every engine accepts, checked by
# level_harmonic before any work.  Denominators grow doubly exponentially
# with the level (greedy: 43 -> 1807 -> 3263443 ...), so past it one value
# or one search node can cost unbounded time.
DEFAULT_MAX_TERMS = 12


def level_harmonic(n: int, least: int, caller: str, name: str = "n") -> Fraction:
    """H_n, once least <= n <= DEFAULT_MAX_TERMS holds, else ValueError.

    Every engine calls this on its level argument before any sum or search,
    so an out-of-range level is rejected in O(1) whatever its size.
    """
    if n < least:
        raise ValueError(f"{caller}() needs {name} >= {least}, got {format_rational(n)}")
    if n > DEFAULT_MAX_TERMS:
        raise ValueError(f"{name}={format_rational(n)} exceeds the term limit {DEFAULT_MAX_TERMS}")
    return harmonic(n)


def greedy_completion(
    x: Fraction, r: int, p: Fraction = ZERO, m_last: int = 0
) -> tuple[list[int], Fraction]:
    """Greedy r-term extension of a partial sum p < x, denominators > m_last.

    Returns the r new denominators and the extended sum, read off as x minus
    the final gap, so no caller re-adds the unit fractions.
    """
    denoms = []
    gap = x - p
    for _ in range(r):
        # floor(1/gap) + 1; gap > 0 is invariant because 1/m < gap strictly.
        # While gap > 1 the natural choice repeats m = 1, so distinctness has
        # to be forced; once gap <= 1 the recursion is self-increasing.
        m = max(gap.denominator // gap.numerator + 1, m_last + 1)
        denoms.append(m)
        gap -= Fraction(1, m)
        m_last = m
    return denoms, x - gap


def _greedy_terms(x: Fraction, n: int) -> tuple[list[int], Fraction]:
    """The first n greedy denominators of x > 0 and their exact sum."""
    if x <= 0:
        raise ValueError(f"greedy_underapprox() needs x > 0, got {format_rational(x)}")
    level_harmonic(n, 0, "greedy_underapprox")
    return greedy_completion(Fraction(x), n)


def greedy_underapprox(x: Fraction, n: int) -> EgyptianRep:
    """First n greedy denominators for x > 0."""
    return EgyptianRep(tuple(_greedy_terms(x, n)[0]))


def greedy_value(x: Fraction, n: int) -> Fraction:
    """Exact value of the greedy n-term underapproximation of x > 0."""
    return _greedy_terms(x, n)[1]


def greedy_gap(x: Fraction, n: int) -> Fraction:
    """x minus its greedy n-term value; strictly positive."""
    return x - greedy_value(x, n)

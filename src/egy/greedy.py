"""Greedy n-term Egyptian underapproximation.

At each step the largest unit fraction *strictly* below the remaining gap is
taken: m_k = floor(1/gap) + 1.  The "+1" keeps the approximation strict even
when the reciprocal gap is an integer, and it forces the denominators to be
strictly increasing (after choosing m_k the gap drops below
1/(m_k(m_k - 1))).

``greedy_completion`` is the one greedy loop, on integer (num, den) pairs:
its input need not be reduced, and it returns the value as a reduced
pair, which the public functions here turn into a ``Fraction`` once,
without another gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .rational import EgyptianRep, _add_reduced, _from_reduced, _shown, format_rational, harmonic

# The largest level (term count) every engine accepts, checked by
# level_harmonic before any work.  Denominators grow doubly exponentially
# with the level (greedy: 43 -> 1807 -> 3263443 ...), so past it one value
# or one search node can cost unbounded time.
DEFAULT_MAX_TERMS = 12


def level_harmonic(n: int, least: int, caller: str, name: str = "n") -> Fraction:
    """H_n, once n is an ``int`` (not a ``bool``) with
    least <= n <= DEFAULT_MAX_TERMS, else ValueError.

    Every engine calls this on its level argument before any sum or search,
    so an out-of-range level is rejected in O(1) whatever its size.
    """
    if type(n) is not int or n < least:
        raise ValueError(f"{caller}() needs {name} >= {least}, got {_shown(n)}")
    if n > DEFAULT_MAX_TERMS:
        raise ValueError(f"{name}={format_rational(n)} exceeds the term limit {DEFAULT_MAX_TERMS}")
    return harmonic(n)


def greedy_completion(xn: int, xd: int, r: int) -> tuple[list[int], int, int]:
    """The first r greedy denominators of x = xn/xd > 0.

    x is an integer pair with a positive denominator that need not be
    reduced.  Returns the r denominators and their sum as a reduced pair
    (num, den) with den > 0, read off as x minus the final gap, so no
    caller re-adds the unit fractions.
    """
    g = gcd(xn, xd)
    xn, xd = xn // g, xd // g
    gn, gd = xn, xd  # the gap > 0: x less the terms taken so far
    denoms = []
    m = 0  # the last denominator taken
    for _ in range(r):
        # floor(1/gap) + 1; gap > 0 is invariant because 1/m < gap strictly.
        # While gap > 1 the natural choice repeats m = 1, so distinctness has
        # to be forced; once gap <= 1 the recursion is self-increasing.
        m = max(gd // gn + 1, m + 1)
        denoms.append(m)
        # gap - 1/m, reduced by one gcd: a cheap one, as the new numerator
        # gn m - gd is at most gn unless distinctness forced m up
        gn, gd = gn * m - gd, gd * m
        g = gcd(gn, gd)
        gn, gd = gn // g, gd // g
    vn, vd = _add_reduced(xn, xd, -gn, gd)
    return denoms, vn, vd


def _greedy_terms(x: Fraction, n: int) -> tuple[list[int], Fraction]:
    """The first n greedy denominators of x > 0 and their exact sum."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"greedy_underapprox() needs x > 0, got {format_rational(x)}")
    level_harmonic(n, 0, "greedy_underapprox")
    denoms, vn, vd = greedy_completion(x.numerator, x.denominator, n)
    return denoms, _from_reduced(vn, vd)


def greedy_underapprox(x: Fraction, n: int) -> EgyptianRep:
    """First n greedy denominators for x > 0."""
    return EgyptianRep(_greedy_terms(x, n)[0])


def greedy_value(x: Fraction, n: int) -> Fraction:
    """Exact value of the greedy n-term underapproximation of x > 0."""
    return _greedy_terms(x, n)[1]


def greedy_gap(x: Fraction, n: int) -> Fraction:
    """x minus its greedy n-term value; strictly positive."""
    x = Fraction(x)
    return x - greedy_value(x, n)

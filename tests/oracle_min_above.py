"""The Fraction min-above search with a cutoff, kept as an oracle.

``min_jterm_above`` is the j-term min-above search written as a walk that
keeps the best point in a closure and drops every point above the cutoff
(or above the best so far), spending one unit per node and per loop step.
It also tests each child against that bound, a test that always holds (a
child 1/m lies below q - p, and the cutoff above q).
``egy.search._min_jterm_above`` is the same search as a plain recursive
min with no cutoff, and spends nothing itself.  ``next_point_above`` is a
window loop over j = 1..n without the precondition checks, doubling the
window until a point turns up.  Both spend from the budget object they are
given, so ``tests/test_search.py`` can compare the value and the units.
"""

from fractions import Fraction


def min_jterm_above(q, j, cutoff, budget):
    best = None

    def rec(p, k, m_last):
        nonlocal best
        budget.spend()
        gap = q - p  # > 0
        r = j - k
        if r == 1:
            m = gap.denominator // gap.numerator
            if gap.denominator % gap.numerator == 0:
                m -= 1  # need 1/m strictly above the gap
            if m <= m_last:
                return
            cand = p + Fraction(1, m)
            hi = cutoff if best is None else best
            if cand <= hi:
                best = cand
            return
        m = max(m_last + 1, gap.denominator // gap.numerator + 1)
        run = sum(Fraction(1, m + t) for t in range(r))
        while True:
            if p + run <= q:
                break  # even consecutive denominators cannot climb past q
            hi = cutoff if best is None else best
            if p + Fraction(1, m) < hi:
                rec(p + Fraction(1, m), k + 1, m)
            run += Fraction(1, m + r) - Fraction(1, m)
            m += 1
            budget.spend()

    rec(Fraction(0), 0, 0)
    return best


def next_point_above(q, n, budget):
    window = Fraction(1, n * (n + 1))
    while True:
        best = None
        for j in range(1, n + 1):
            cand = min_jterm_above(q, j, best if best is not None else q + window, budget)
            if cand is not None and (best is None or cand < best):
                best = cand
        if best is not None:
            return best
        window *= 2

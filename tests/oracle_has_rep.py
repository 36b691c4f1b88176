"""The Fraction representation search, kept as an oracle.

``has_representation`` is ``egy.search.has_representation`` as it was
before it moved onto integer pairs: a depth-first search in ascending
order that at each step tries every m with 1/m <= remainder <= j'/m for
the j' terms left, with no budget.
"""

from fractions import Fraction


def has_representation(q, j, max_denom=None):
    def rec(rem, terms, m_lo):
        if terms == 0:
            return [] if rem == 0 else None
        if rem <= 0:
            return None
        lo = max(m_lo, -((-rem.denominator) // rem.numerator))
        hi = (terms * rem.denominator) // rem.numerator
        if max_denom is not None and hi > max_denom:
            hi = max_denom
        for m in range(lo, hi + 1):
            sub = rec(rem - Fraction(1, m), terms - 1, m + 1)
            if sub is not None:
                return [m] + sub
        return None

    found = rec(Fraction(q), j, 1)
    return tuple(found) if found is not None else None

"""The Fraction greedy loop, kept as the oracle of ``egy.greedy``.

``greedy_completion`` is ``egy.greedy.greedy_completion`` as it was before
it moved onto integer pairs: the gap x - p is a ``Fraction``, each step
takes m = max(floor(1/gap) + 1, m_last + 1) and subtracts 1/m from it, and
the extended sum is read off as x minus the final gap.
``tests/test_greedy.py`` diffs the integer loop against it.
"""

from fractions import Fraction


def greedy_completion(x, r, p=Fraction(0), m_last=0):
    denoms = []
    gap = x - p
    for _ in range(r):
        m = max(gap.denominator // gap.numerator + 1, m_last + 1)
        denoms.append(m)
        gap -= Fraction(1, m)
        m_last = m
    return denoms, x - gap

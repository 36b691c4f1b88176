"""The greedy-incumbent branch and bound, kept as the oracle of
``egy.search._best_pair``.

This is the best-value search as it was before it became the k = 1 case
of the window walk's k-best search (``egy.search._next_values``).  The
incumbent starts at the greedy value and is refreshed with a greedy
completion whenever a node's partial sum reaches it.  Ties go to the
smaller witness: a two-term node may tie the incumbent when its prefix is
at most the incumbent's (the max-below scan's ``allow_equal``), and a
child whose densest completion only ties it is visited only when its
prefix comes first.  The greedy loop is the Fraction one of
``oracle_greedy`` and the scan the linear one of ``oracle_max_below``;
the units and raises go through ``egy.search``'s own ``_Budget``,
``_certain_work`` and consecutive runs, so a search spends and raises as
``_best_pair`` does.

The one difference: with n = 2 and 1 < x <= 3/2 the k-best search's scan
starts at a = 1, whose pair the greedy incumbent 1 + 1/m covers here, and
so it spends one unit more.
"""

from fractions import Fraction

from egy.rational import harmonic
from egy.search import _certain_work, _consecutive_run, _next_run
from oracle_greedy import greedy_completion
from oracle_max_below import linear_two_term_max_below


def best_pair(x, n, budget):
    """The best n-term value below x > 0 as a Fraction, and its
    denominators as a tuple, spending budget (a ``search._Budget``)."""
    hn = harmonic(n)
    if x > hn:
        return hn, tuple(range(1, n + 1))
    xn, xd = x.numerator, x.denominator
    inc_rep, inc = greedy_completion(x, n)
    if n == 1:  # the best one-term sum below x is the greedy one
        return inc, tuple(inc_rep)
    vn, vd = inc.numerator, inc.denominator

    def visit(pn, pd, k, m_last, prefix):
        # the prefix sums to p = pn/pd, unreduced
        nonlocal vn, vd, inc_rep
        budget.spend()
        r = n - k
        if vn * pd <= pn * vd:
            comp, inc = greedy_completion(x, r, Fraction(pn, pd), m_last)
            vn, vd = inc.numerator, inc.denominator
            inc_rep = prefix + comp
        gap_n, gap_d = xn * pd - pn * xd, xd * pd  # x - p > 0, unreduced
        m = max(gap_d // gap_n + 1, m_last + 1)  # the first child, or the scan's first a
        if r > 2 or (m + budget.left - 1) * gap_n <= 2 * gap_d:
            budget.require(_certain_work(gap_n, gap_d, r, m, budget.left),
                           "the %d-term subtree at depth %d", r, k)
        if r == 2:
            allow_equal = prefix <= inc_rep[:k]
            found, bn, bd, a, b, iters = linear_two_term_max_below(
                gap_n, gap_d, m_last + 1, vn * pd - pn * vd, vd * pd, allow_equal, budget.left)
            budget.spend(iters)
            if found:  # p + 1/a + 1/b beats the incumbent, or ties it with a smaller witness
                v = Fraction(pn, pd) + Fraction(bn, bd)
                vn, vd = v.numerator, v.denominator
                inc_rep = prefix + [a, b]
            return
        # densest possible completion from m uses consecutive denominators
        rn, rd = _consecutive_run(m, r)
        while True:
            reach = (pn * rd + rn * pd) * vd - vn * pd * rd  # sign of p + run - inc
            if reach < 0 or (reach == 0 and prefix + [m] > inc_rep[: k + 1]):
                break
            visit(pn * m + pd, pd * m, k + 1, m, prefix + [m])
            rn, rd = _next_run(rn, rd, m, r)
            m += 1
            budget.spend()

    visit(0, 1, 0, 0, [])
    return Fraction(vn, vd), tuple(inc_rep)

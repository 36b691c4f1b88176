"""Exact combinatorial search over Egyptian sums.

Four engines:

* ``best_underapprox`` -- the largest n-term sum of distinct unit
  fractions strictly below x.  It checks its arguments and runs the
  integer core ``_best_pair``, which takes x as a pair (num, den) and
  returns the value as a reduced pair; the library's own callers
  (``partition.cell_of`` and ``measure.chain_check``) call the core
  directly and build each ``Fraction`` once, from that pair.  The core is
  the k = 1 case of ``_next_values``.

* ``_next_values`` -- the one branch and bound on integer pairs: the
  count largest distinct n-term sums below x, each with its
  lexicographically smallest witness, from one search (the window walk,
  ``partition.cells_in_window``, runs it with count up to 64, and
  ``_best_pair`` with count 1).  It keeps those values and prunes against
  the last.  The bottom two levels are closed form: for a fixed
  next-to-last denominator the best last one is floor(1/gap) + 1, so a
  two-term node is one linear scan, the top-k scan
  (``_kernels.two_term_top``).  Before a node with two or more terms left
  runs its scan or visits its children, it bounds the units that work is
  certain to spend (``_certain_work``) and raises at once when the bound
  passes the budget left.

* ``has_representation`` -- exhaustive search on integer pairs for an
  exact j-term representation, pruned by the densest completion.

* ``next_point_above`` -- the smallest Egyptian sum of at most n terms
  above a value q: the min over j = 1..n of the j-term min-above searches,
  each a plain recursive min (``_min_jterm_above``), tested once against
  the cell-length window q + 1/(n(n+1)).  It is the right endpoint of the
  partition cell whose left endpoint is q.  The searches never prune, so
  their work depends on q and j alone; it counts those units exactly
  (``_min_above_work``) and charges them before the first search, raising
  at once when they pass the budget left.  Its entry checks and the window
  test compare q's pair by cross multiplication; the min-above searches
  themselves still run on ``Fraction``s.

Every search spends one unit of its ``node_budget`` per node and per
loop step, and returns the exact answer or raises ``ValueError`` (input
outside its domain) or ``NodeBudgetExceeded``; it never degrades to an
approximate answer.  Everything is deterministic and single-threaded.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import _kernels
from .greedy import level_harmonic
from .rational import ZERO, EgyptianRep, _from_reduced, _shown, format_rational, harmonic

DEFAULT_NODE_BUDGET = 10_000_000


class ResourceLimitError(RuntimeError):
    """A configured search budget was exhausted before the exact answer."""


class NodeBudgetExceeded(ResourceLimitError):
    pass


class ShorterRepresentationError(ValueError):
    """q was expected to need exactly n terms but a shorter witness exists."""

    def __init__(self, q: Fraction, terms: int, witness: EgyptianRep):
        denoms = ", ".join(map(format_rational, witness.denominators)) + "," * (terms == 1)
        super().__init__(f"{format_rational(q)} already has the {terms}-term representation ({denoms})")
        self.q = q
        self.terms = terms
        self.witness = witness


class _Budget:
    """The units one search may still spend.

    It is every engine's check of its node_budget argument: None, for
    DEFAULT_NODE_BUDGET, or an ``int`` that is not a ``bool``; anything
    else raises ``ValueError``.  A budget below 1 raises at the first unit.
    """

    __slots__ = ("left",)

    def __init__(self, limit: int | None):
        if limit is None:
            limit = DEFAULT_NODE_BUDGET
        elif type(limit) is not int:  # a bool is no count
            raise ValueError(f"node_budget must be None or an int, got {limit!r}")
        self.left = limit

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise NodeBudgetExceeded("search node budget exhausted")

    def require(self, need: int, what: str, *args: int) -> None:
        """Raise ``NodeBudgetExceeded`` if need, a lower bound on the units the
        work ``what % args`` must spend, passes the budget left.  The message is
        built only then, and prints a count past 64 bits as a power 2^k <= it."""
        if need > self.left:
            need_text, left_text = (
                str(v) if v >> 64 == 0 else f"2^{v.bit_length() - 1}" for v in (need, self.left))
            raise NodeBudgetExceeded(f"node budget exhausted: {what % args} needs at least "
                                     f"{need_text} more units, {left_text} left")


def _consecutive_run(m: int, r: int) -> tuple[int, int]:
    """1/m + ... + 1/(m+r-1) as rn/rd with rd = m(m+1)...(m+r-1)."""
    rn, rd = 0, 1
    for t in range(m, m + r):
        rn, rd = rn * t + rd, rd * t
    return rn, rd


def _next_run(rn: int, rd: int, m: int, r: int) -> tuple[int, int]:
    """The run from m + 1, from rn/rd = _consecutive_run(m, r): drop 1/m and
    add 1/(m+r).  1/m = q/rd, and rn - q is rd times the other terms, each
    of which leaves a factor m in it."""
    q = rd // m
    return (rn - q) // m * (m + r) + q, q * (m + r)


def _certain_work(gap_n: int, gap_d: int, r: int, m: int, limit: int) -> int:
    """A lower bound on the units a search node must still spend.

    The node has r >= 2 terms left and x - p = g = gap_n/gap_d > 0; m > 1/g
    is its first child, or with r = 2 its scan's first a.  The threshold,
    the last value ``_next_values`` keeps, stays below x.

    With r = 2 this is the scan's length counted from a = 2 (a scan from
    a = 1 spends one unit more): its threshold lies below g, so it cannot
    stop before a = _kernels._last_pair_above(g, True) + 1, and that a
    counts as an iteration.

    With r >= 3 the node loop cannot break at a child m with
    p + 1/m + ... + 1/(m+r-1) >= x; these certain children are a prefix of
    the loop.  Each costs its entry unit, the loop's unit after it and at
    least its own certain work.  Summing stops once the bound passes limit,
    and with r = 3 also once the children left cannot carry it past limit.
    """
    if r == 2:
        return max(1, _kernels._last_pair_above(gap_n, gap_d, True) + 2 - max(m, 2))
    rn, rd = _consecutive_run(m, r)
    last_m = (r * gap_d - 1) // gap_n  # run_r(m) < r/m: no later child is certain
    bound = 0
    while rn * gap_d >= gap_n * rd and bound <= limit:
        cn, cd = gap_n * m - gap_d, gap_d * m  # the child's gap, > 0
        if r == 3 and bound + (last_m - m + 1) * (cd // cn + 5) <= limit:
            break  # a scan spends at most 1/g + 2 units, and g grows with m
        first = max(m + 1, cd // cn + 1)  # the child's first denominator
        bound += 2 + _certain_work(cn, cd, r - 1, first, limit - bound - 2)
        rn, rd = _next_run(rn, rd, m, r)
        m += 1
    return bound


def _min_above_work(gap_n: int, gap_d: int, r: int, m_last: int, limit: int) -> int:
    """The units of a ``_min_jterm_above`` node, exactly: one per node and
    one per loop step, in its whole subtree.

    The node has r >= 1 terms left, gap q - p = gap_n/gap_d > 0 and last
    denominator m_last.  Its loop never prunes against the incumbent, so
    its work depends on these alone: a leaf costs 1; a node costs 1 plus,
    for each child its consecutive run lets it visit, 1 for the loop step
    and the child's work.  With r = 2 the children are the m up to
    _kernels._last_pair_above(g, False), each a leaf.  Summing stops once
    the count passes limit.
    """
    if r == 1:
        return 1
    m = max(m_last + 1, gap_d // gap_n + 1)
    if r == 2:
        return 1 + 2 * max(0, _kernels._last_pair_above(gap_n, gap_d, False) - m + 1)
    rn, rd = _consecutive_run(m, r)
    work = 1
    while rn * gap_d > gap_n * rd and work <= limit:
        work += 1 + _min_above_work(gap_n * m - gap_d, gap_d * m, r - 1, m, limit - work - 1)
        rn, rd = _next_run(rn, rd, m, r)
        m += 1
    return work


def best_underapprox(
    x: Fraction, n: int, node_budget: int | None = None
) -> tuple[Fraction, EgyptianRep]:
    """Maximum n-term Egyptian sum strictly below x, with its witness.

    Among denominator tuples attaining the optimum, the lexicographically
    smallest is returned: depth-first ascending exploration visits tuples
    in lexicographic order, and a later tie is never kept.  The search is
    ``_best_pair``; this checks the arguments and builds the value's
    ``Fraction``.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"best_underapprox() needs x > 0, got {format_rational(x)}")
    level_harmonic(n, 0, "best_underapprox")
    vn, vd, denominators = _best_pair(x.numerator, x.denominator, n, node_budget)
    return _from_reduced(vn, vd), EgyptianRep(denominators)


def _best_pair(xn: int, xd: int, n: int, node_budget: int | None) -> tuple[int, int, tuple[int, ...]]:
    """``best_underapprox`` on integer pairs: the best n-term value below
    x = xn/xd as a reduced pair (vn, vd) with vd > 0, and its denominators.

    The caller has checked x > 0 (xd > 0; the pair need not be reduced)
    and the level n, so callers that hold their values as pairs build
    each ``Fraction`` once, from the result.  Past H_n the answer is H_n
    at once; node_budget is checked there too.  Otherwise it is the first
    step of the window walk, ``_next_values`` with count 1 and a cut point
    a = 0/1 that no value reaches.
    """
    hn = harmonic(n)
    if xn * hn.denominator <= hn.numerator * xd:
        return _next_values(xn, xd, n, 1, 0, 1, node_budget)[0]
    _Budget(node_budget)  # n = 0 always lands here: H_0 = 0 < x
    return hn.numerator, hn.denominator, tuple(range(1, n + 1))


def _next_values(
    xn: int, xd: int, n: int, count: int, an: int, ad: int, node_budget: int | None
) -> list[tuple[int, int, tuple[int, ...]]]:
    """The next count steps of the window walk down from x = xn/xd: the
    count largest distinct n-term sums below x, in decreasing order, cut
    after the first at or below a = an/ad.  Each comes as
    (vn, vd, denominators), reduced with vd > 0, and its witness, a tuple,
    is the lexicographically smallest; each value is the best n-term value
    below the one before it, and the first is ``_best_pair``'s.

    One k-best branch and bound on integer pairs: it keeps those values
    and prunes against the last one once it holds them all, ties
    included.  Depth-first ascending exploration reaches each value's
    smallest witness first, so a later tie is never kept, and a pruned
    subtree can hold no kept value but the last, whose witness came first.
    Until then every sum is kept, so the first scan fills the list.  The
    two-term nodes run ``_kernels.two_term_top`` with the last kept value
    as its running threshold, and the fail-fast ``_certain_work`` stays a
    lower bound, as every threshold lies below x.  The caller has checked
    0 <= a < x <= H_n and 1 <= n (a = 0/1 never cuts); the state is the
    count values besides the path, so a long walk runs several searches.
    """
    budget = _Budget(node_budget)
    if n == 1:  # the one-term sums below x are 1/m from the greedy m on
        values = []
        for m in range(xd // xn + 1, xd // xn + 1 + count):
            values.append((1, m, (m,)))
            if m * an >= ad:
                break
        return values
    kept: list[tuple[int, int, tuple[int, ...]]] = []
    tn, td = 0, 1  # the threshold: the last kept value once the list is full
    leaf_n, leaf_d, leaf_prefix = 0, 1, ()  # the scanning node's prefix, summing to p

    def offer(a: int, b: int) -> tuple[int, int]:
        # v = p + 1/a + 1/b beats the threshold: insert it unless an earlier
        # witness has it, and return the threshold less p
        nonlocal tn, td
        pn, pd = leaf_n, leaf_d
        ab = a * b
        vn, vd = pn * ab + (a + b) * pd, pd * ab
        i, hi = 0, len(kept)  # i becomes the first index holding less than v
        while i < hi:
            mid = (i + hi) // 2
            if kept[mid][0] * vd < vn * kept[mid][1]:
                hi = mid
            else:
                i = mid + 1
        if not i or kept[i - 1][0] * vd != vn * kept[i - 1][1]:
            g = gcd(vn, vd)
            vn, vd = vn // g, vd // g
            kept.insert(i, (vn, vd, leaf_prefix + (a, b)))
            if vn * ad <= an * vd:  # at or below a: the walk stops there
                del kept[i + 1:]
                tn, td = vn, vd
            else:
                del kept[count:]
                last = kept[-1]
                if len(kept) == count or last[0] * ad <= an * last[1]:  # full, or cut at a
                    tn, td = last[0], last[1]
        return tn * pd - pn * td, td * pd

    def visit(pn: int, pd: int, k: int, m_last: int, prefix: tuple[int, ...]) -> None:
        # the prefix sums to p = pn/pd, unreduced
        nonlocal leaf_n, leaf_d, leaf_prefix
        budget.spend()
        r = n - k
        gap_n, gap_d = xn * pd - pn * xd, xd * pd  # x - p > 0, unreduced
        m = gap_d // gap_n + 1  # the first child, or the scan's first a
        if m <= m_last:
            m = m_last + 1
        # a scan's certain length ends by a = floor(2/g) + 1, since
        # 1/a + 1/(a+1) < 2/a; unless m + left - 1 <= 2/g the budget
        # reaches past that, and the isqrt is skipped
        if r > 2 or (m + budget.left - 1) * gap_n <= 2 * gap_d:
            budget.require(_certain_work(gap_n, gap_d, r, m, budget.left),
                           "the %d-term subtree at depth %d", r, k)
        if r == 2:
            leaf_n, leaf_d, leaf_prefix = pn, pd, prefix
            budget.spend(_kernels.two_term_top(gap_n, gap_d, m_last + 1, tn * pd - pn * td,
                                               td * pd, offer, budget.left)[0])
            return
        # densest possible completion from m uses consecutive denominators
        rn, rd = _consecutive_run(m, r)
        while (pn * rd + rn * pd) * td > tn * pd * rd:  # p + run beats the threshold
            visit(pn * m + pd, pd * m, k + 1, m, prefix + (m,))
            rn, rd = _next_run(rn, rd, m, r)
            m += 1
            budget.spend()

    visit(0, 1, 0, 0, ())
    return kept


def has_representation(
    q: Fraction, j: int, max_denom: int | None = None, node_budget: int | None = None
) -> EgyptianRep | None:
    """The lexicographically smallest j-term representation of q with
    denominators <= max_denom, or None if there is none.

    max_denom is None, for no cap, or an ``int`` that is not a ``bool``;
    anything else raises ``ValueError``.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"has_representation() needs q > 0, got {format_rational(q)}")
    level_harmonic(j, 1, "has_representation", "j")
    if max_denom is not None and type(max_denom) is not int:  # a bool is no bound
        raise ValueError(f"max_denom must be None or an int, got {_shown(max_denom)}")
    found = _representation(q.numerator, q.denominator, j, 1, max_denom, _Budget(node_budget))
    return None if found is None else EgyptianRep(found)


def _representation(
    gn: int, gd: int, r: int, m: int, max_denom: int | None, budget: _Budget
) -> list[int] | None:
    """The smallest r increasing denominators from m up to max_denom whose
    unit fractions sum to gn/gd > 0 (unreduced), or None."""
    budget.spend()
    if r == 1:  # the remainder must be 1/last; the loop's prune gives last >= m
        last = gd // gn
        fits = gd == last * gn and (max_denom is None or last <= max_denom)
        return [last] if fits else None
    m = max(m, gd // gn + 1)  # 1/m < remainder, as r - 1 more terms follow
    rn, rd = _consecutive_run(m, r)
    # stop once m, m+1, ... fall short of the remainder or pass max_denom
    while rn * gd >= gn * rd and (max_denom is None or m + r - 1 <= max_denom):
        rest = _representation(gn * m - gd, gd * m, r - 1, m + 1, max_denom, budget)
        if rest is not None:
            return [m] + rest
        rn, rd = _next_run(rn, rd, m, r)
        m += 1
        budget.spend()
    return None


def _min_jterm_above(q: Fraction, p: Fraction, r: int, m_last: int) -> Fraction | None:
    """The least sum p + 1/m_1 + ... + 1/m_r above q with m_last < m_1 < ...
    < m_r, or None; p < q.

    Only prefixes strictly below q are explored: a sum whose proper prefix
    already exceeds q is beaten by that prefix, which a shorter search
    covers.  The last term is closed form, the largest m with 1/m above
    the gap.  Nothing is pruned, so the units are ``_min_above_work``'s
    exact count, which the caller charges before it runs.
    """
    gap = q - p  # > 0
    if r == 1:
        m = (gap.denominator - 1) // gap.numerator  # the largest m with 1/m > gap
        return p + Fraction(1, m) if m > m_last else None
    m = max(m_last + 1, gap.denominator // gap.numerator + 1)
    run = Fraction(*_consecutive_run(m, r))
    best = None
    while p + run > q:  # else even consecutive denominators cannot climb past q
        point = _min_jterm_above(q, p + Fraction(1, m), r - 1, m)
        if point is not None and (best is None or point < best):
            best = point
        run += Fraction(1, m + r) - Fraction(1, m)
        m += 1
    return best


def next_point_above(
    q: Fraction,
    n: int,
    node_budget: int | None = None,
    check: bool = True,
) -> Fraction:
    """Smallest j-term Egyptian sum above q over 1 <= j <= n.

    q must be an attainable best value at level n: it has an n-term
    representation and no shorter one (a value with a shorter representation
    is a limit from above of n-term sums and never a best value), and
    check=True verifies that, spending from the same budget.  Its cell is
    at most 1/(n(n+1)) long, so the answer lies in (q, q + 1/(n(n+1))]; no
    sum there, or q >= H_n, the largest n-term sum, raises ValueError.

    After the checks, the units of the j = 1..n min-above searches are
    counted exactly and charged before any of them runs, so a call that
    would run out raises NodeBudgetExceeded before its first search node.
    The answer is the min of their points, tested once against the window.
    """
    q = Fraction(q)
    qn, qd = q.numerator, q.denominator
    if qn <= 0:
        # There is no minimal Egyptian sum above 0; 0 is only a best value
        # at level 0, where every point belongs to the single cell (0, inf).
        raise ValueError(f"next_point_above() needs q > 0, got {format_rational(q)}")
    hn = level_harmonic(n, 1, "next_point_above")
    if qn * hn.denominator >= hn.numerator * qd:
        raise ValueError(f"next_point_above() needs q < H_{n} = {format_rational(hn)}, "
                         f"got {format_rational(q)}")
    budget = _Budget(node_budget)
    if check:
        for jj in range(1, n):
            witness = _representation(qn, qd, jj, 1, None, budget)
            if witness is not None:
                raise ShorterRepresentationError(q, jj, EgyptianRep(witness))
        if _representation(qn, qd, n, 1, None, budget) is None:
            raise ValueError(f"{format_rational(q)} has no {n}-term representation")
    work = 0
    for j in range(1, n + 1):
        work += _min_above_work(qn, qd, j, 0, budget.left - work)
    budget.require(work, "the min-above search for up to %d terms", n)
    budget.spend(work)
    points = (_min_jterm_above(q, ZERO, j, 0) for j in range(1, n + 1))
    best = min((point for point in points if point is not None), default=None)
    # the window, by cross multiplication: best - q <= 1/cap, the cell-length bound
    cap = n * (n + 1)
    if best is None or (best.numerator * qd - qn * best.denominator) * cap > best.denominator * qd:
        cutoff = q + Fraction(1, cap)
        raise ValueError(f"no sum of at most {n} unit fractions lies in ({format_rational(q)}, "
                         f"{format_rational(cutoff)}]: {format_rational(q)} is not a level-{n} best value")
    return best

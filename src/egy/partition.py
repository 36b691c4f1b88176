"""Interval partitions induced by best n-term underapproximations.

For each level n, the positive reals split into countably many half-open
cells (q, r] on which the best n-term underapproximation is the constant q,
plus the single unbounded cell (H_n, inf).  Bounded cells are no longer than
1/(n(n+1)).

Also provides the "regular" numbers used in the density argument behind that
length bound: sums whose first l denominators are 1..l and whose remaining
denominators m satisfy m_{k+1} >= (m_k - 1) m_k + 1 (each tail term at most
the gap its predecessor left behind).  The densest tail is the Sylvester
chain of equalities, and because m_{k+1} - 1 = m_k (m_k - 1) its terms
telescope: r of them from m sum to 1/(m - 1) - 1/(m_{r+1} - 1).  The search
uses only the integer end m_{r+1}: capped near the gap's size to decide a
denominator, and in full for a tail it returns.  That tail, with
K = m_1 ... m_r, is (K - 1)/((m - 1) K); every m_k is 1 mod m - 1, so the
pair ((K - 1)/(m - 1), K) is already in lowest terms and needs no gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .greedy import level_harmonic
from .rational import ZERO, EgyptianRep, _from_reduced, _Record, _shown, format_rational
from .search import _best_pair, _next_values, next_point_above

# The cells one window search lists at most.  A search holds O(SEARCH_CELLS)
# values, and a longer walk runs one search per SEARCH_CELLS cells.  Level-4
# walks run faster up to 64, as each search walks the deep tree again;
# levels 2-3 are flat from 16 on (ROADMAP item 14).
SEARCH_CELLS = 64


class Cell(_Record):
    """One partition cell (lower, upper]; upper is None for (H_n, inf).

    The level is an ``int`` of at least 1, not a ``bool``.  The endpoints
    are ``int``s or ``Fraction``s, with 0 <= lower < upper and a bounded
    cell no longer than 1/(level (level + 1)), the length bound of the
    paper's partition; anything else raises ``ValueError``.  The checks run
    on the endpoints' integer parts, read once each (a ``Fraction``'s from
    its slots, as ``format_rational`` reads them), and build no
    ``Fraction`` on success.
    """

    level: int
    lower: Fraction
    upper: Fraction | None
    best_rep: EgyptianRep | None

    def __init__(self, level: int, lower: Fraction, upper: Fraction | None,
                 best_rep: EgyptianRep | None) -> None:
        self.__dict__.update(level=level, lower=lower, upper=upper, best_rep=best_rep)
        if type(level) is not int or level < 1:  # a bool is no level
            raise ValueError(f"cell level must be >= 1, got {_shown(level)}")
        lower_type, upper_type = type(lower), type(upper)
        if lower_type is not Fraction and lower_type is not int:
            raise ValueError(f"cell lower endpoint must be an int or a Fraction, got {lower!r}")
        if upper is not None and upper_type is not Fraction and upper_type is not int:
            raise ValueError(f"cell upper endpoint must be an int, a Fraction or None, got {upper!r}")
        ln, ld = (lower._numerator, lower._denominator) if lower_type is Fraction else (lower, 1)
        if ln < 0:
            raise ValueError(f"cell lower endpoint must be >= 0, got {format_rational(lower)}")
        if upper is not None:
            # order and length by cross multiplication
            un, ud = (upper._numerator, upper._denominator) if upper_type is Fraction else (upper, 1)
            width_n, width_d = un * ld - ln * ud, ud * ld
            if width_n <= 0:
                raise ValueError(f"empty cell ({format_rational(lower)}, {format_rational(upper)}]")
            if width_n * (level * (level + 1)) > width_d:
                cap = Fraction(1, level * (level + 1))
                raise ValueError(
                    f"bounded level-{format_rational(level)} cell longer than {format_rational(cap)}: "
                    f"({format_rational(lower)}, {format_rational(upper)}]"
                )

    def length(self) -> Fraction | None:
        """None for the unbounded cell."""
        if self.upper is None:
            return None
        return self.upper - self.lower

    def contains(self, x: Fraction) -> bool:
        if self.upper is None:
            return x > self.lower
        return self.lower < x <= self.upper


def _at_most(p: Fraction, q: Fraction) -> bool:
    """p <= q for ints or Fractions, by cross multiplication."""
    return p.numerator * q.denominator <= q.numerator * p.denominator


def cell_of(x: Fraction, n: int, node_budget: int | None = None) -> Cell:
    """The unique level-n cell containing x > 0."""
    x = Fraction(x)
    if x.numerator <= 0:
        raise ValueError(f"cell_of() needs x > 0, got {format_rational(x)}")
    hn = level_harmonic(n, 1, "cell_of")
    if not _at_most(x, hn):
        return Cell(level=n, lower=hn, upper=None, best_rep=None)
    vn, vd, denominators = _best_pair(x.numerator, x.denominator, n, node_budget)
    lower = _from_reduced(vn, vd)
    upper = next_point_above(lower, n, node_budget, check=False)
    return Cell(level=n, lower=lower, upper=upper, best_rep=EgyptianRep(denominators))


def cells_in_window(
    a: Fraction,
    b: Fraction,
    n: int,
    max_cells: int = 10_000,
    node_budget: int | None = None,
) -> tuple[list[Cell], Fraction]:
    """Cells tiling (a, b] right to left, and the uncovered left remainder.

    Cell left endpoints accumulate at limit points from the left, so the walk
    starts at b and may stop early (max_cells); the stretch (a, last.lower]
    still uncovered is returned exactly.  The first cell is clipped at b and
    the last at a, so uncovered + sum of lengths == b - a always holds.
    The endpoints are anything ``Fraction()`` reads, with
    0 < a < b <= H_n; n is an ``int`` level and max_cells an ``int`` count
    of at least 0, neither a ``bool``.

    Each cell's lower end is the best value below its upper end, and the
    emitted upper end is the cursor itself, so no right endpoint is searched
    for.  One k-best search (``search._next_values``) lists the next
    SEARCH_CELLS of those values below the cursor at a time, in place of one
    best-value search per cell; node_budget caps each of those searches.
    The cursor and a are kept as reduced pairs, and they and H_n are
    compared by cross multiplication: an endpoint that is a ``Fraction`` is
    read, not copied, and each cell's lower end becomes a ``Fraction`` once.
    """
    if type(a) is not Fraction:
        a = Fraction(a)
    if type(b) is not Fraction:
        b = Fraction(b)
    an, ad = a._numerator, a._denominator  # the slots _from_reduced fills
    cursor, cn, cd = b, b._numerator, b._denominator
    if not (0 < an and an * cd < cn * ad and _at_most(b, level_harmonic(n, 1, "cells_in_window"))):
        raise ValueError(f"need 0 < a < b <= harmonic({n}), got a={format_rational(a)}, "
                         f"b={format_rational(b)}")
    if type(max_cells) is not int or max_cells < 0:  # a bool is no count
        raise ValueError(f"max_cells must be >= 0, got {_shown(max_cells)}")
    cells: list[Cell] = []
    while len(cells) < max_cells and cn * ad > an * cd:
        # cursor is in the cell (best, upper]; the emitted cell ends at the
        # cursor, which clips the first one at b (later cursors are exact cell
        # endpoints, so there upper == cursor), and the last one is clipped
        # at a, so the emitted pieces tile (max(a, best), b].
        count = min(SEARCH_CELLS, max_cells - len(cells))
        for cn, cd, denominators in _next_values(cn, cd, n, count, an, ad, node_budget):
            best = _from_reduced(cn, cd)
            cells.append(Cell(n, best if cn * ad > an * cd else a, cursor, EgyptianRep(denominators)))
            cursor = best
    # the uncovered stretch (a, cursor], empty once the walk passes a
    un, ud = max(0, cn * ad - an * cd), cd * ad
    g = gcd(un, ud)
    return cells, _from_reduced(un // g, ud // g)


def refinement_check(x: Fraction, n: int, node_budget: int | None = None) -> bool:
    """Whether the level-n cell of x nests inside the level-(n-1) cell.

    The coarse cell is read first.  When it is the unbounded (H_{n-1}, inf),
    the answer is True without a level-n search: the best n-term sum below
    x > H_{n-1} is above H_{n-1}.  Otherwise x <= H_{n-1} < H_n, so the
    level-n cell is bounded too.
    """
    level_harmonic(n, 2, "refinement_check")
    coarse = cell_of(x, n - 1, node_budget)
    if coarse.upper is None:
        return True
    fine = cell_of(x, n, node_budget)
    return _at_most(coarse.lower, fine.lower) and _at_most(fine.upper, coarse.upper)


def _sylvester_end(m: int, r: int, cap: int | None = None) -> int:
    """The end m_{r+1} of the chain m_1 = m, m_{k+1} = (m_k - 1) m_k + 1, or
    its first term past cap + 1 (the terms only grow, so the end is too).

    The constraint m_{k+1} >= (m_k - 1) m_k + 1 makes the chain the densest
    tail from m >= 2: since m_{k+1} - 1 = m_k (m_k - 1), its r terms
    telescope to 1/(m - 1) - 1/(m_{r+1} - 1), a value in [1/m, 1/(m - 1)).
    """
    for _ in range(r):
        if cap is not None and m - 1 > cap:
            break
        m = m * m - m + 1  # a square takes CPython's faster multiply
    return m


def _regular_descend(x: Fraction, hi: Fraction, r: int, low: int, p: Fraction) -> Fraction | None:
    """A regular value in [x, hi] with r constrained terms appended to p.

    Greedy descent: take the largest feasible denominator while still below
    x, then finish with a sparse chain once x is passed.  Returns None when
    the branch cannot reach x or the canonical completion escapes hi.

    The densest tail from m lies in [1/m, 1/(m - 1)) and falls strictly as
    m grows, so with c = floor(1/need) every m <= c reaches need and no
    m >= c + 2 does.  The tail from c + 1 is 1/c - 1/(M - 1), M its chain's
    end, so it reaches need iff (M - 1) slack >= bar = c need_d, with
    slack = need_d - c need_n: never at slack = 0, and surely once a term
    passes bar / slack, where the chain is capped, at O(bits of need).
    """
    while r > 0:
        if p >= x:
            rem = hi - p
            if rem <= 0:
                return None
            # a chain starting at m sums below 1/(m-1), so m-1 >= 1/rem keeps
            # the whole completion inside the window
            m = max(low, -((-rem.denominator) // rem.numerator) + 1)
            k = (_sylvester_end(m, r) - 1) // (m - 1)  # m_1 ... m_r, 1 mod m - 1
            return p + _from_reduced((k - 1) // (m - 1), k)
        need = x - p
        m, slack = divmod(need.denominator, need.numerator)  # m = c
        bar = m * need.denominator
        if m + 1 >= low and slack and (_sylvester_end(m + 1, r, bar // slack) - 1) * slack >= bar:
            m += 1
        if m < low:
            return None
        p += Fraction(1, m)
        low = (m - 1) * m + 1
        r -= 1
    return p  # each m keeps x within reach of its tail, so p >= x


def next_regular_above(x: Fraction, n: int) -> Fraction:
    """A smallest-possible regular n-term value >= x, within x + 1/(n(n+1)).

    Candidates are built per prefix length l (denominators 1..l, then n-l
    constrained terms); the infimum of regular values >= x is not always
    attained (tails can shrink toward a limit), so the canonical greedy
    descent value per branch is used.  The returned value always satisfies
    the 1/(n(n+1)) density bound.  n is checked against the term limit
    first, as by every engine (``greedy.level_harmonic``): the values'
    denominators grow doubly exponentially in n.
    """
    x = Fraction(x)
    hn = level_harmonic(n, 1, "next_regular_above")
    if not 0 < x <= hn:
        raise ValueError(f"need 0 < x <= harmonic({n}), got {format_rational(x)}")
    window_hi = x + Fraction(1, n * (n + 1))
    best = hn  # the l = n regular value; >= x by the precondition
    prefix = ZERO
    for l in range(n):
        if l:
            prefix += Fraction(1, l)
        # first free denominator >= 2 always: taking 1 at l = 0 is exactly
        # the l = 1 branch, and m = 1 degenerates the chain recurrence
        cand = _regular_descend(x, window_hi, n - l, max(l + 1, 2), prefix)
        if cand is not None and cand < best:
            best = cand
    return best


def cells_to_csv(cells: list[Cell]) -> str:
    """CSV dump: level, lower, upper, length, best_rep (space-separated)."""
    lines = ["level,lower,upper,length,best_rep"]
    for c in cells:
        upper = "+inf" if c.upper is None else format_rational(c.upper)
        length = "" if c.upper is None else format_rational(c.upper - c.lower)
        rep = "" if c.best_rep is None else " ".join(map(format_rational, c.best_rep))
        lines.append(f"{format_rational(c.level)},{format_rational(c.lower)},{upper},{length},{rep}")
    return "\n".join(lines) + "\n"

"""The regular-number search in two earlier forms, kept as oracles of the
integer chain ends in ``egy.partition``.

The term-by-term search is the original one: the densest tail is summed
one ``Fraction`` per term, the largest feasible denominator is found by
bracketing and bisection, the last term has its own branch, and the
completion adds its chain term by term.  Its bisection is far too slow
for tiny x at n = 12.

The closed-form search reads each whole tail off the telescoped
``Fraction`` 1/(m - 1) - 1/(m_{r+1} - 1): it picks m or m + 1 by building
the tail from m + 1 and comparing it with the gap.  It is fast enough
for x = 1/10^300 at n = 12.  Both share ``next_regular_above``, which
takes the descent to run, and ``tests/test_partition.py`` diffs
``egy.partition.next_regular_above`` against each.
"""

from fractions import Fraction

from egy.rational import ZERO, harmonic


def _sylvester_maxtail(m: int, r: int) -> Fraction:
    """Largest constrained r-term tail starting at denominator >= m.

    The constraint m_{k+1} >= (m_k - 1) m_k + 1 makes the densest tail the
    chain of equalities from m itself.
    """
    total = ZERO
    for _ in range(r):
        total += Fraction(1, m)
        m = (m - 1) * m + 1
    return total


def _largest_feasible(need: Fraction, low: int, r: int) -> int:
    """Largest m >= low with _sylvester_maxtail(m, r) >= need.

    Caller guarantees feasibility at low; the reach is strictly decreasing
    in m and tends to 0, so the bracket-and-bisect below terminates.
    """
    hi = low * 2
    while _sylvester_maxtail(hi, r) >= need:
        hi *= 2
    lo = low
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sylvester_maxtail(mid, r) >= need:
            lo = mid
        else:
            hi = mid
    return lo


def _regular_descend(x: Fraction, hi: Fraction, r: int, low: int, p: Fraction) -> Fraction | None:
    """A regular value in [x, hi] with r constrained terms appended to p.

    Greedy descent: take the largest feasible denominator while still below
    x, then finish with a sparse chain once x is passed.  Returns None when
    the branch cannot reach x or the canonical completion escapes hi.
    """
    while r > 0:
        if p >= x:
            rem = hi - p
            if rem <= 0:
                return None
            # a chain starting at m sums below 1/(m-1), so m-1 >= 1/rem keeps
            # the whole completion inside the window
            m = max(low, -((-rem.denominator) // rem.numerator) + 1)
            while r > 0:
                p += Fraction(1, m)
                m = (m - 1) * m + 1
                r -= 1
            return p
        need = x - p
        if r == 1:
            m = need.denominator // need.numerator  # largest m with 1/m >= need
            if m < low:
                return None
            return p + Fraction(1, m)
        if _sylvester_maxtail(low, r) < need:
            return None
        m = _largest_feasible(need, low, r)
        p += Fraction(1, m)
        low = (m - 1) * m + 1
        r -= 1
    return p if p >= x else None


def _closed_form_maxtail(m: int, r: int) -> Fraction:
    """Largest constrained r-term tail starting at denominator >= m >= 2.

    The constraint m_{k+1} >= (m_k - 1) m_k + 1 makes the densest tail the
    chain of equalities from m itself.  Since m_{k+1} - 1 = m_k (m_k - 1),
    each term is 1/m_k = 1/(m_k - 1) - 1/(m_{k+1} - 1), so the r terms
    telescope to 1/(m - 1) - 1/(m_r - 1), a value in [1/m, 1/(m - 1)).
    """
    m_r = m
    for _ in range(r):
        m_r = (m_r - 1) * m_r + 1
    return Fraction(m_r - m, (m - 1) * (m_r - 1))


def _closed_form_descend(x: Fraction, hi: Fraction, r: int, low: int,
                         p: Fraction) -> Fraction | None:
    """``_regular_descend`` with whole closed-form tails.

    The densest tail from m lies in [1/m, 1/(m - 1)) and falls strictly as
    m grows, so with c = floor(1/need) every m <= c reaches need and no
    m >= c + 2 does: one tail at c + 1 decides the largest feasible m.
    """
    while r > 0:
        if p >= x:
            rem = hi - p
            if rem <= 0:
                return None
            m = max(low, -((-rem.denominator) // rem.numerator) + 1)
            return p + _closed_form_maxtail(m, r)
        need = x - p
        m = need.denominator // need.numerator  # largest m with 1/m >= need
        if m + 1 >= low and _closed_form_maxtail(m + 1, r) >= need:
            m += 1
        if m < low:
            return None
        p += Fraction(1, m)
        low = (m - 1) * m + 1
        r -= 1
    return p  # each m keeps x within reach of its tail, so p >= x


def closed_form_next_regular_above(x: Fraction, n: int) -> Fraction:
    """``next_regular_above`` over the closed-form descent."""
    return next_regular_above(x, n, _closed_form_descend)


def next_regular_above(x: Fraction, n: int, descend=_regular_descend) -> Fraction:
    """A smallest-possible regular n-term value >= x, within x + 1/(n(n+1)).

    Candidates are built per prefix length l (denominators 1..l, then n-l
    constrained terms); the infimum of regular values >= x is not always
    attained (tails can shrink toward a limit), so the canonical greedy
    descent value per branch is used.  The returned value always satisfies
    the 1/(n(n+1)) density bound.
    """
    x = Fraction(x)
    if n < 1:
        raise ValueError(f"next_regular_above() needs n >= 1, got {n}")
    hn = harmonic(n)
    if not 0 < x <= hn:
        raise ValueError(f"need 0 < x <= harmonic({n}), got {x}")
    window_hi = x + Fraction(1, n * (n + 1))
    best = hn  # the l = n regular value; >= x by the precondition
    prefix = ZERO
    for l in range(n):
        if l:
            prefix += Fraction(1, l)
        # first free denominator >= 2 always: taking 1 at l = 0 is exactly
        # the l = 1 branch, and m = 1 degenerates the chain recurrence
        cand = descend(x, window_hi, n - l, max(l + 1, 2), prefix)
        if cand is not None and cand < best:
            best = cand
    return best

"""The hot inner loops: the two-term scans and the two Lemma-1
enumerations.

There is one two-term scan loop, ``two_term_top``: it offers its caller
each pair that beats a running threshold the caller sets, and
``two_term_max_below`` is its k = 1 case, whose threshold is its own last
pair.  Callers look these up as ``_kernels.<name>`` at call time.
``tests/test_kernels.py`` diffs both scans against the plain linear scans
kept in ``tests/oracle_max_below.py`` (and the top-k scan against a
brute-force enumeration), and the enumerations against naive loops and
the dict-and-sort enumeration in ``tests/oracle_lemma1.py``.

The enumerations are generators: ``iter_min_competitors`` and
``iter_direct_terms`` yield as they go and hold O(i) state for their
O(i^2) pairs or terms.  ``iter_min_competitors`` merges the per-a streams
of b on one heap of ints j 2i + a, one entry per a, so pairs come off it
by greedy cell j and then by a.  A cell's sum is replaced only by a
strictly smaller one, so the smallest a wins ties, and the cell is yielded
once j moves on.
``two_term_min_competitors`` and ``direct_mode_terms`` are the same as
lists, for callers that need one.

All arithmetic is on plain Python ints; fractions are carried as unreduced
(num, den) pairs and compared by cross multiplication.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from math import isqrt

from .rational import format_rational

BACKEND = "python"  # the one implementation; benchmark runs record it


def _last_pair_above(n, d, allow_equal):
    """Largest a >= 0 with 1/a + 1/(a+1) > n/d (>= when allow_equal); n, d > 0.

    1/a + 1/(a+1) >= n/d is f(a) = (2a+1)d - n a(a+1) >= 0.  f is concave
    with f(0) = d > 0, so that holds exactly for 0 <= a <= r, the positive
    root ((2d - n) + sqrt(4d^2 + n^2)) / (2n).  floor(r) is exact through
    the integer square root, since floor(y / k) = floor(floor(y) / k) for
    an integer k > 0.  f is zero there only when r is an integer.
    """
    a = (2 * d - n + isqrt(4 * d * d + n * n)) // (2 * n)
    if not allow_equal and (2 * a + 1) * d == n * a * (a + 1):
        a -= 1
    return a


def _pair_sum(a, b):
    """The k = 1 offer: the pair's own sum is the new threshold."""
    return a + b, a * b


def two_term_max_below(xn, xd, a_min, thr_n, thr_d, allow_equal=False,
                       max_iters=None):
    """Largest 1/a + 1/b strictly below x = xn/xd with a_min <= a < b.

    Only candidates beating the threshold thr_n/thr_d are tracked (ties too,
    when allow_equal is set; the lowest-a tie is kept).  Returns
    (found, num, den, a, b, iterations); num/den is unreduced.  Needs
    xd > 0, thr_d > 0 and thr_n >= 0.  Neither pair needs to be reduced:
    the tuple depends on the values of x and the threshold alone, except
    that a no-find returns the threshold pair as it was given.

    It is the top-k scan with k = 1 (``two_term_top``): each offer's sum is
    the new threshold, so the last pair offered is the best, and the scan
    stops at the first a where even 1/a + 1/(a+1) cannot beat it.  a = 1
    is never scanned.

    When the scan would pass max_iters iterations it aborts and reports
    iterations = max_iters + 1 with found=False; the caller's budget
    accounting turns that into a resource error, never a wrong answer.
    The scan always starts; ``egy.search`` raises before calling it when
    the scan's certain length passes the budget (with a threshold under x
    it cannot stop before the last a with 1/a + 1/(a+1) >= x).
    """
    if xn <= 0:
        return (False, 0, 0, 0, 0, 0)
    iters, a, b = two_term_top(xn, xd, a_min if a_min > 2 else 2, thr_n, thr_d, _pair_sum,
                               max_iters, allow_equal)
    if max_iters is not None and iters > max_iters:
        return (False, 0, 0, 0, 0, iters)
    if not a:
        return (False, thr_n, thr_d, 0, 0, iters)
    return (True, a + b, a * b, a, b, iters)


def two_term_top(xn, xd, a_min, thr_n, thr_d, offer, max_iters=None,
                 allow_equal=False):
    """Offer offer(a, b) every pair a_min <= a < b with 1/a + 1/b < x = xn/xd
    that strictly beats the running threshold, in lexicographic order; with
    allow_equal the first offer may also tie the starting threshold.

    The threshold starts at thr_n/thr_d and is whatever the last offer
    returned, as (thr_n, thr_d).  Needs x > 0 and thr_d > 0; a threshold
    of 0 or below is beaten by every pair.  A caller that keeps the k
    largest sums returns its k-th once it holds k, which makes this the
    top-k scan; ``two_term_max_below`` is its k = 1 case.  a = 1 is
    scanned when x > 1.

    For each a the partners run from the best one, the smallest b, up
    while they still beat the threshold.  For a top-k caller that is at
    most 2k offers per a: each partner after the first is a new sum, kept
    (after k of them the next loses to all k) or equal to one kept.  So
    the iterations count the a scanned: the scan stops at the first a
    where 1/a + 1/(a+1) cannot beat the threshold, and that a counts; that
    a is found once per threshold with an integer square root.  Returns
    (iterations, a, b) with (a, b) the last pair offered, or (0, 0) when
    none was.  Once the iterations would pass max_iters they read
    max_iters + 1; the offers made stand, and the caller's budget raises.

    An inner loop passes the a whose best pair loses.  a's best partner
    is b = q + 1 with q = xda // num, and 1/a + 1/b - bn/bd has the sign
    of (a+b) bd - bn a b = v - b u, with u = bn a - bd and v = bd a.  So
    the pair wins iff q u <= w = v - u - slack, with slack 1 for a strict
    win and 0 for a tie too.  Each a passed costs one floor division and
    one multiplication: xn a - xd, xd a and both sides of the comparison
    are running sums.  Past split = floor(2/x), where b = a + 1 is
    forced, the first a wins.
    """
    a = xd // xn + 1  # smallest a with 1/a < x
    if a < a_min:
        a = a_min
    a0 = a
    a_abort = None  # the a whose iteration is one too many
    if max_iters is not None:
        a_abort = a0 + max_iters if max_iters > 0 else a0
    split = 2 * xd // xn + 1
    bn, bd = thr_n, thr_d
    last_a = last_b = 0
    slack = 0 if allow_equal else 1  # the least margin that wins; ties count once
    while True:
        # a threshold every pair beats is beaten at a, and asked again after
        end = _last_pair_above(bn, bd, not slack) + 1 if bn > 0 else a + 1
        if a_abort is not None and a_abort < end:
            end = a_abort
        if a >= end:
            break
        num = xn * a - xd  # > 0; equals a*xd*(x - 1/a)
        xda = xd * a
        u = bn * a - bd
        w = bd * a - u - slack
        step = bd - bn
        stop = end if end < split else split
        for a in range(a, stop):
            if xda // num * u <= w:
                b = xda // num + 1
                break
            num += xn
            xda += xd
            u += bn
            w += step
        else:
            if a < stop:  # an empty range leaves a as it was
                a = stop
            if a == end:
                break
            b = a + 1
        while True:
            bn, bd = offer(a, b)
            b += 1
            if (a + b) * bd <= bn * a * b:  # 1/a + 1/b no longer beats bn/bd
                break
        last_a, last_b = a, b - 1
        slack = 1
        a += 1
    return a - a0 + 1, last_a, last_b


def _b_range(i, a):
    """The b > a with 1/a + 1/b in (1/i, 1/(i-1)], as lo..hi (maybe empty)."""
    # 1/b <= 1/(i-1) - 1/a  =>  b >= a(i-1)/(a-i+1)
    lo = -(-a * (i - 1) // (a - i + 1))
    if lo <= a:
        lo = a + 1
    # 1/b > 1/i - 1/a  =>  b < ai/(a-i)
    return lo, (a * i - 1) // (a - i)


def competitor_pairs(i, limit):
    """The number of pairs (a, b) that ``iter_min_competitors(i)`` visits.

    Closed form per a; the count stops growing once it passes limit, so it
    is exact up to limit and a lower bound beyond.
    """
    count = 0
    for a in range(i + 1, 2 * i):
        lo, hi = _b_range(i, a)
        if lo <= hi:
            count += hi - lo + 1
            if count > limit:
                break
    return count


def iter_min_competitors(i):
    """Per greedy cell, the smallest two-term sum that can beat greedy.

    Enumerates every s = 1/a + 1/b with i < a < b and s in
    (1/i, 1/(i-1)]: a < 2i is forced by 2/a > s > 1/i, and for each a the
    range of b follows from the two endpoint constraints.  Each s lands in
    the greedy cell (1/i + 1/j, 1/i + 1/(j-1)] with
    j = floor(1/(s - 1/i)) + 1, and the minimum per cell is kept.

    Yields (j, s_num, s_den) in increasing j, s unreduced; of equal sums
    the one with the smallest a.  For fixed a the gap g(b) = s - 1/i is
    below 1/b, so from b to b+1 it falls by 1/(b(b+1)) > g(b) g(b+1):
    1/g grows by more than one and j strictly increases with b.

    So the streams of b, one per a, each run in increasing j, and they are
    merged on one heap: a's entry is the int j 2i + a for its next b, which
    orders by (j, a) since a < 2i, and two lists hold a's next b and its
    last.  Popping the smallest key visits the pairs by cell and, within a
    cell, in increasing a; a cell's sum is replaced only by a strictly
    smaller one, so the smallest a wins ties, and the cell is yielded once
    j moves on.  The state is O(i) for the O(i^2) pairs visited: one heap
    entry and two list slots per a.
    """
    if i < 2:
        raise ValueError(f"need i >= 2, got {format_rational(i)}")
    m = 2 * i
    heap, nxt, his = [], [0] * i, [0] * i  # the lists are indexed by a - i
    for a in range(i + 1, m):
        lo, hi = _b_range(i, a)
        if lo <= hi:
            ia, d = i * a, a - i
            # s - 1/i = gap / (i a b) with gap = ia - d b > 0
            heap.append((ia * lo // (ia - d * lo) + 1) * m + a)
            nxt[d], his[d] = lo, hi
    heapify(heap)
    cell = best_n = best_d = 0
    while heap:
        j, a = divmod(heap[0], m)
        d = a - i
        b = nxt[d]
        sn, sd = a + b, a * b
        if j != cell:
            if cell:
                yield cell, best_n, best_d
            cell, best_n, best_d = j, sn, sd
        elif sn * best_d < best_n * sd:
            best_n, best_d = sn, sd
        if b < his[d]:
            b += 1
            nxt[d] = b
            ia = i * a
            heapreplace(heap, (ia * b // (ia - d * b) + 1) * m + a)
        else:
            heappop(heap)
    if cell:
        yield cell, best_n, best_d


def two_term_min_competitors(i):
    """``iter_min_competitors(i)`` as a list."""
    return list(iter_min_competitors(i))


def iter_direct_terms(i):
    """Right-part interval lengths 1/floor(x_k) - 1/x_k for all k.

    x_k = N(N+2k)/(N-2k) with N = i(i+1), k = 0..floor(N/10).  Verifies the
    spacing x_{k+1} - x_k > 1 (so the floors are pairwise distinct) and
    x_k >= N (so every interval sits inside (1/i, 1/(i-1)]) as it goes,
    raising at the first k that fails.  Integer x_k contribute an empty
    right part and are skipped.

    Yields (floor_xk, term_num, term_den) in increasing k, terms unreduced.
    """
    if i < 2:
        raise ValueError(f"need i >= 2, got {format_rational(i)}")
    big = i * (i + 1)
    kmax = big // 10
    prev_p = prev_q = 0
    for k in range(kmax + 1):
        q = big - 2 * k
        p = big * (big + 2 * k)
        if p < big * q:
            raise ArithmeticError(f"x_k < i(i+1) at i={i}, k={k}")
        if k and p * prev_q - prev_p * q <= q * prev_q:
            raise ArithmeticError(f"spacing x_k - x_(k-1) <= 1 at i={i}, k={k}")
        f = p // q
        if f * q != p:
            # 1/f - 1/x_k = (x_k - f)/(f x_k) = (p - f q)/(f p)
            yield f, p - f * q, f * p
        prev_p, prev_q = p, q


def direct_mode_terms(i):
    """``iter_direct_terms(i)`` as a list."""
    return list(iter_direct_terms(i))

import random
import tracemalloc
from fractions import Fraction

import pytest

import oracle_lemma1
from egy import _kernels
from oracle_max_below import linear_two_term_max_below, linear_two_term_top


# egy.search passes x - p and inc - p to the kernel unreduced, so the
# kernel's tuple must depend on the values alone: scaling either pair by k
# changes nothing, except that a no-find returns the threshold pair as given
SCALES = (2, 6, 2**61 - 1)  # and k = 1, the call itself


def _same_as_oracle(*args):
    got = _kernels.two_term_max_below(*args)
    assert got == linear_two_term_max_below(*args), args
    xn, xd, a_min, thr_n, thr_d, *rest = args
    for k in SCALES:
        assert _kernels.two_term_max_below(k * xn, k * xd, a_min, thr_n, thr_d, *rest) == got, (k, args)
        want = got if got[0] else (False, k * got[1], k * got[2], *got[3:])
        assert _kernels.two_term_max_below(xn, xd, a_min, k * thr_n, k * thr_d, *rest) == want, (k, args)
    return got


def _caps(args):
    """max_iters values around the scan's own length (its uncapped iterations)."""
    length = linear_two_term_max_below(*args[:6], None)[5]
    return {None, 0, 1, length - 2, length - 1, length, length + 1}



def test_two_term_max_below_result_is_valid():
    x = Fraction(11, 24)
    found, num, den, a, b, _ = _kernels.two_term_max_below(11, 24, 1, 1, 100)
    assert found
    assert Fraction(num, den) == Fraction(1, a) + Fraction(1, b) == Fraction(9, 20) < x
    assert (a, b) == (4, 5)


def test_max_below_oracle_random():
    rng = random.Random(21)
    for _ in range(400):
        xd = rng.randrange(2, 10**5)
        xn = rng.randrange(1, xd // rng.choice((1, 30, 1000)) + 2)  # scans of ~1/x steps
        thr_d = xd * rng.randrange(1, 60)
        thr_n = max(0, xn * thr_d // xd - rng.randrange(0, 200))
        a_min = rng.randrange(1, 60)
        allow_equal = bool(rng.getrandbits(1))
        args = (xn, xd, a_min, thr_n, thr_d, allow_equal)
        for cap in _caps(args):
            _same_as_oracle(*args, cap)


def test_max_below_oracle_bignum():
    # xd >= 2^70, scans of up to ~5000 steps
    rng = random.Random(22)
    for _ in range(60):
        xd = rng.randrange(2**70, 2**75)
        xn = rng.randrange(xd // 5000, xd // 2)
        thr_d = xd * rng.randrange(1, 5)
        thr_n = max(1, xn * thr_d // xd - rng.randrange(0, 10**6))
        args = (xn, xd, 2, thr_n, thr_d, bool(rng.getrandbits(1)))
        for cap in _caps(args):
            _same_as_oracle(*args, cap)


def test_max_below_oracle_ties():
    # thresholds equal to the best candidate (scaled, so unreduced) and to
    # 1/a + 1/(a+1), the scan's stopping bound; with allow_equal the lowest-a
    # tie wins, without it a tie never counts
    rng = random.Random(23)
    ties = 0
    for _ in range(300):
        xd = rng.randrange(2, 3000)
        xn = rng.randrange(1, 2 * xd // rng.choice((1, 50)) + 2)
        a_min = rng.randrange(1, 20)
        best = linear_two_term_max_below(xn, xd, a_min, 0, 1)
        scale = rng.randrange(1, 4)
        a = rng.randrange(2, 100)
        for thr_n, thr_d in ((best[1] * scale, best[2] * scale),
                             ((2 * a + 1) * scale, a * (a + 1) * scale)):
            for allow_equal in (False, True):
                args = (xn, xd, a_min, thr_n, thr_d, allow_equal)
                got = _same_as_oracle(*args)
                ties += got[0] and got[1] * thr_d == thr_n * got[2]
                for cap in _caps(args):
                    _same_as_oracle(*args, cap)
    assert ties > 100
    # a win equal to a later a's bound, as 1/2 + 1/12 = 1/3 + 1/4: the
    # scan stops at that a, unless ties count and nothing was found yet
    stops = 0
    for a2 in range(3, 80):
        bound = Fraction(2 * a2 + 1, a2 * (a2 + 1))
        for a in range(2, a2):
            if (bound - Fraction(1, a)).numerator == 1:
                x = bound + Fraction(1, 10**9)
                for allow_equal in (False, True):
                    args = (x.numerator, x.denominator, a, 0, 1, allow_equal)
                    stops += _same_as_oracle(*args)[3] == a
                    for cap in _caps(args):
                        _same_as_oracle(*args, cap)
    assert stops > 20


def test_max_below_oracle_zero_threshold():
    rng = random.Random(24)
    for _ in range(200):
        xd = rng.randrange(2, 10**4)
        xn = rng.randrange(1, 2 * xd)
        args = (xn, xd, rng.randrange(1, 30), 0, rng.randrange(1, 50),
                bool(rng.getrandbits(1)))
        assert _same_as_oracle(*args)[0]
        for cap in _caps(args):
            _same_as_oracle(*args, cap)


def test_max_below_oracle_a_min_clamps():
    # a_min below, at and past the first admissible a = floor(1/x) + 1, and
    # around 2/x, past which b = a + 1 is forced; also x >= 1
    rng = random.Random(25)
    for _ in range(600):
        xd = rng.randrange(1, 500)
        xn = rng.randrange(1, 3 * xd)
        first = xd // xn + 1
        a_min = max(0, rng.choice((first, 2 * xd // xn)) + rng.randrange(-3, 40))
        thr_d = rng.randrange(1, 200)
        thr_n = rng.randrange(0, 3 * thr_d) // rng.choice((1, 20))  # also at or above x
        args = (xn, xd, a_min, thr_n, thr_d, bool(rng.getrandbits(1)))
        for cap in _caps(args) | {5}:
            _same_as_oracle(*args, cap)


def test_last_pair_above_against_linear_search():
    # the scan's stopping bound: largest a with 1/a + 1/(a+1) > n/d (>= with ties)
    def linear(n, d, allow_equal):
        a = 0
        while True:
            f = (2 * a + 3) * d - n * (a + 1) * (a + 2)
            if f < 0 or (f == 0 and not allow_equal):
                return a
            a += 1

    pairs = [(n, d) for n in range(1, 80) for d in range(1, 80)]
    pairs += [((2 * a + 1) * k, a * (a + 1) * k) for a in range(1, 300) for k in (1, 3)]
    rng = random.Random(26)
    pairs += [(rng.randrange(1, 2**60), rng.randrange(1, 2**70)) for _ in range(300)]
    for n, d in pairs:
        if d // n < 10**5:
            for allow_equal in (False, True):
                assert _kernels._last_pair_above(n, d, allow_equal) == linear(n, d, allow_equal)


def test_max_below_nonpositive_target():
    assert _kernels.two_term_max_below(0, 5, 2, 1, 10) == (False, 0, 0, 0, 0, 0)
    assert _kernels.two_term_max_below(-3, 5, 2, 1, 10, True, 0) == (False, 0, 0, 0, 0, 0)



class _Keeper:
    """The caller of the top-k scan: keeps the k largest distinct sums
    offered, each with its first pair, and answers with the k-th once it
    holds k, else with the starting threshold.  Only the first offer may
    tie the starting threshold, and only with allow_equal."""

    def __init__(self, k, thr, allow_equal=False):
        self.k, self.thr, self.allow_equal = k, thr, allow_equal
        self.kept, self.offers = {}, []

    def __call__(self, a, b):
        value = Fraction(1, a) + Fraction(1, b)
        assert value > self.thr or (self.allow_equal and not self.offers
                                    and value == self.thr), (a, b)
        self.offers.append((a, b))
        self.kept.setdefault(value, (a, b))
        for drop in sorted(self.kept, reverse=True)[self.k:]:
            del self.kept[drop]
        if len(self.kept) == self.k:
            self.thr = min(self.kept)
        return self.thr.numerator, self.thr.denominator


def _partner(x, a):
    """The smallest b > a with 1/a + 1/b < x, for 1/a < x."""
    return max(int(1 / (x - Fraction(1, a))) + 1, a + 1)


def _brute_top(x, a_min, k, thr, allow_equal=False):
    """The k largest distinct 1/a + 1/b < x above thr with a_min <= a < b,
    each with its lexicographically smallest pair, by enumeration; with
    allow_equal also thr itself when the first pair at or above thr ties it.

    An a's first k partners give k distinct sums, so the k-th largest sum
    is at least the k-th of them: enumerating down to the largest such
    sum is finite even where 1/a >= thr gives a infinitely many partners
    (every a when thr <= 0; the first one is enough then).
    """
    first = max(a_min, int(1 / x) + 1)
    tie = None  # the one pair that may offer thr itself
    a = first
    while allow_equal and Fraction(2 * a + 1, a * (a + 1)) >= thr:
        value = Fraction(1, a) + Fraction(1, _partner(x, a))
        if value >= thr:
            tie = (a, _partner(x, a)) if value == thr else None
            break
        a += 1
    floor = thr
    a = first
    while a == first or Fraction(1, a) >= thr > 0:
        floor = max(floor, Fraction(1, a) + Fraction(1, _partner(x, a) + k - 1))
        a += 1
    found = {}
    for a in range(first, int(2 / floor) + 2):
        b = _partner(x, a)
        while Fraction(1, a) + Fraction(1, b) >= floor:
            value = Fraction(1, a) + Fraction(1, b)
            assert value < x
            if value > thr or (a, b) == tie:
                found.setdefault(value, (a, b))
            b += 1
    return {v: found[v] for v in sorted(found, reverse=True)[:k]}


def _run_top(xn, xd, a_min, k, thr, allow_equal=False, cap=None):
    """One top-k scan with a fresh keeper; it returns the last pair offered."""
    keeper = _Keeper(k, thr, allow_equal)
    iters, a, b = _kernels.two_term_top(xn, xd, a_min, thr.numerator, thr.denominator,
                                        keeper, cap, allow_equal)
    assert (a, b) == (keeper.offers[-1] if keeper.offers else (0, 0))
    return keeper, iters


def _top_matches_oracles(xn, xd, a_min, k, thr, allow_equal=False):
    """The top-k scan against the brute-force top k and, from a strict
    start, offer for offer and iteration for iteration against the linear
    scan, also when capped.  With k = 1 the last pair offered is the
    brute force's lexicographically first best pair."""
    keeper, iters = _run_top(xn, xd, a_min, k, thr, allow_equal)
    assert keeper.offers == sorted(set(keeper.offers))
    want = _brute_top(Fraction(xn, xd), a_min, k, thr, allow_equal)
    assert keeper.kept == want, (xn, xd, a_min, k, thr, allow_equal)
    if k == 1:
        assert keeper.offers[-1:] == list(want.values())
    if not allow_equal:
        linear = _Keeper(k, thr)
        assert linear_two_term_top(xn, xd, a_min, thr.numerator, thr.denominator, linear) == iters
        assert linear.offers == keeper.offers
    for cap in {0, 1, iters - 2, iters - 1, iters, iters + 1} - {-1}:
        capped, got = _run_top(xn, xd, a_min, k, thr, allow_equal, cap)
        assert got == (iters if cap >= iters else cap + 1), (xn, xd, a_min, k, thr, cap)
        assert capped.offers == keeper.offers[:len(capped.offers)]
        if not allow_equal:
            again = _Keeper(k, thr)
            assert linear_two_term_top(xn, xd, a_min, thr.numerator, thr.denominator, again, cap) == got
            assert again.offers == capped.offers
    return keeper


def _random_top_case(rng):
    """x below and above 1 (there a = 1 is scanned), a_min below, at and
    past the first admissible a and 2/x, past which b = a + 1 is forced,
    and thresholds from below 0 to just under x, among them the best sum
    of one of the first a, which a start with ties can offer first."""
    xd = rng.randrange(1, 300)
    xn = rng.randrange(1, 2 * xd + 2)
    x = Fraction(xn, xd)
    first = xd // xn + 1
    a_min = max(1, rng.choice((1, first, 2 * xd // xn)) + rng.randrange(-2, 6))
    a = max(a_min, first) + rng.choice((0, 0, 1, 2))
    thr = rng.choice((Fraction(-1, 3), Fraction(0),
                      x * Fraction(rng.randrange(1, 100), 100),
                      x - Fraction(1, rng.randrange(2, 10**4)),
                      Fraction(1, a) + Fraction(1, _partner(x, a))))
    if thr > 0 and thr * max(a_min, first) > 2:
        thr /= 3  # no pair beats it: a quick empty scan, tested below
    return xn, xd, a_min, thr


def test_top_k_scan_against_brute_force():
    rng = random.Random(27)
    ones = ties = 0
    for _ in range(400):
        xn, xd, a_min, thr = _random_top_case(rng)
        allow_equal = bool(rng.getrandbits(1))
        keeper = _top_matches_oracles(xn, xd, a_min, rng.randrange(1, 10), thr, allow_equal)
        ones += any(a == 1 for a, _ in keeper.offers)
        ties += sum(Fraction(1, a) + Fraction(1, b) == thr for a, b in keeper.offers[:1])
    assert ones > 10 and ties > 10
    # a threshold at or above every pair: one iteration, no offer
    for thr in (Fraction(11, 24), Fraction(9, 20), Fraction(2)):
        assert not _top_matches_oracles(11, 24, 1, 3, thr).offers


def test_top_k_scan_with_one_kept_is_the_max_below_scan():
    # k = 1 keepers against the brute force; from a_min >= 2 and a
    # threshold >= 0 the max-below scan returns the same pair and length
    rng = random.Random(28)
    for _ in range(300):
        xn, xd, a_min, thr = _random_top_case(rng)
        allow_equal = bool(rng.getrandbits(1))
        keeper = _top_matches_oracles(xn, xd, a_min, 1, thr, allow_equal)
        if a_min >= 2 and thr >= 0:
            _, iters = _run_top(xn, xd, a_min, 1, thr, allow_equal)
            found, _, _, a, b, got = _kernels.two_term_max_below(
                xn, xd, a_min, thr.numerator, thr.denominator, allow_equal)
            assert (found, got) == (bool(keeper.offers), iters)
            assert [(a, b)] == keeper.offers[-1:] or not found


def test_top_k_scan_offers_a_starting_tie_first_only():
    # 1/5 + 1/20 = 1/6 + 1/12 = 1/4 is the starting threshold, just under x,
    # and no pair past a = 5 beats it: with ties, only the first pair is offered
    x = Fraction(1, 4) + Fraction(1, 10**6)
    for k in (1, 3):
        keeper = _top_matches_oracles(x.numerator, x.denominator, 5, k, Fraction(1, 4), True)
        assert keeper.offers == [(5, 20)]
        assert not _top_matches_oracles(x.numerator, x.denominator, 5, k, Fraction(1, 4)).offers


def test_top_k_scan_keeps_the_first_pair_of_equal_sums():
    # 1/5 + 1/20 = 1/6 + 1/12 = 1/4 and 1/7 + 1/42 = 1/8 + 1/24 = ... =
    # 1/10 + 1/15 = 1/6, the largest sums past a_min: each sum is offered
    # by all of its pairs, and the first one is kept
    for value, a_min, pairs in ((Fraction(1, 4), 5, [(5, 20), (6, 12)]),
                                (Fraction(1, 6), 7, [(7, 42), (8, 24), (9, 18), (10, 15)])):
        x = value + Fraction(1, 10**6)
        for allow_equal in (False, True):
            keeper = _top_matches_oracles(x.numerator, x.denominator, a_min, 3, Fraction(0),
                                          allow_equal)
            assert keeper.kept[value] == pairs[0]
            assert set(pairs) <= set(keeper.offers)
            # with k = 1 the first pair's sum is the threshold, which a
            # later tie cannot beat, even from a start with ties
            keeper = _top_matches_oracles(x.numerator, x.denominator, a_min, 1, Fraction(0),
                                          allow_equal)
            assert keeper.kept == {value: pairs[0]}
            assert not set(pairs[1:]) & set(keeper.offers)


def test_top_k_scan_aborts_long_scans():
    # x = 1/10^6 with a threshold just below: a ~10^6-long scan aborted at
    # its 8th a, after the first a's four partners and a few more wins
    a = 10**6 + 1
    keeper, linear = _Keeper(4, Fraction(1, a)), _Keeper(4, Fraction(1, a))
    assert _kernels.two_term_top(1, 10**6, 2, 1, a, keeper, 7)[0] == 8
    assert linear_two_term_top(1, 10**6, 2, 1, a, linear, 7) == 8
    b = 10**6 * a + 1
    assert keeper.offers[:4] == [(a, b), (a, b + 1), (a, b + 2), (a, b + 3)]
    assert keeper.offers == linear.offers and all(pair[0] < a + 7 for pair in keeper.offers)


def test_min_competitors_against_naive():
    # naive double loop with Fractions, no windows
    i = 9
    lo, hi = Fraction(1, i), Fraction(1, i - 1)
    mins = {}
    for a in range(2, 200):
        if a <= i:
            continue
        for b in range(a + 1, 10**4):
            s = Fraction(1, a) + Fraction(1, b)
            if s <= lo:
                break  # s falls as b grows: no later b lies in the slice
            if s > hi:
                continue
            gap = s - lo
            j = gap.denominator // gap.numerator + 1
            if j not in mins or s < mins[j]:
                mins[j] = s
    got = {
        j: Fraction(n, d) for j, n, d in _kernels.two_term_min_competitors(i)
    }
    assert got == mins


@pytest.mark.parametrize("i", [400, 613])
def test_min_competitors_state_is_cursors_plus_one_window(i):
    # one heap entry and two list slots per a, at most 256 bytes for each a
    # (its int key j 2i + a, its next b and its last b); a list of the
    # ~0.9 i^2 cells would take tens of MB here
    list(_kernels.iter_min_competitors(20))  # warm imports
    tracemalloc.start()
    try:
        for _ in _kernels.iter_min_competitors(i):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < i * 256, peak


@pytest.mark.parametrize("i_values", [range(2, 201), (257, 400, 613)],
                         ids=["2-200", "257-400-613"])
def test_streamed_competitors_match_dict_oracle(i_values):
    # the heap merge of the per-a streams against the dict-and-sort
    # enumeration, tuple for tuple: same cells in increasing j, same unreduced
    # sums, the smallest a on equal sums (the heap pops a cell's pairs in
    # increasing a and keeps only a strictly smaller sum)
    for i in i_values:
        stream = _kernels.iter_min_competitors(i)
        assert iter(stream) is stream  # a generator, not a list
        assert list(stream) == oracle_lemma1.min_competitors(i), i


def test_competitor_pairs_counts_the_enumeration():
    for i in list(range(2, 25)) + [40, 61]:
        total = oracle_lemma1.pair_count(i)
        assert _kernels.competitor_pairs(i, 10**9) == total, i
        # counting stops once it passes the limit: a lower bound past it
        for limit in (0, total // 3, total - 1, total):
            got = _kernels.competitor_pairs(i, limit)
            assert got == total if total <= limit else limit < got <= total, (i, limit)


def test_direct_terms_match_xk():
    from egy.lemma1 import xk

    i = 37
    terms = _kernels.direct_mode_terms(i)
    assert terms == list(_kernels.iter_direct_terms(i))
    expected = []
    for k in range(i * (i + 1) // 10 + 1):
        x = xk(i, k)
        if x.denominator != 1:
            f = x.numerator // x.denominator
            expected.append((f, Fraction(1, f) - 1 / x))
    assert len(terms) == len(expected)
    for (f1, num, den), (f2, length) in zip(terms, expected):
        assert f1 == f2
        assert Fraction(num, den) == length


def test_budget_abort_shape():
    # x = 1/10^6 with a threshold just below forces a ~10^6-long scan
    args = (1, 10**6, 2, 1, 10**6 + 1, False, 7)
    res = _kernels.two_term_max_below(*args)
    assert res[0] is False and res[5] == 8
    assert res == linear_two_term_max_below(*args)

import re
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracle_has_rep
import oracle_min_above
from conftest import random_rational
from egy import _kernels, search
from egy.greedy import greedy_underapprox, greedy_value
from egy.lemma1 import lemma1_certificate, nongreedy_two_term_measure, xk
from egy.measure import cell_decay_bound, chain_check, sample_chain_density, wilson_interval
from egy.partition import Cell, cell_of, cells_in_window, next_regular_above, refinement_check
from egy.rational import harmonic
from egy.search import (
    NodeBudgetExceeded,
    ShorterRepresentationError,
    _Budget,
    best_underapprox,
    has_representation,
    next_point_above,
)
from oracle_bruteforce import brute_best
from oracle_max_below import linear_two_term_max_below


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _named_bound(error):
    """The (need, left) pair an early NodeBudgetExceeded names."""
    found = re.search(r"needs at least (\d+) more units, (\d+) left", str(error))
    assert found, str(error)
    return tuple(map(int, found.groups()))


def test_counterexample_fixture():
    value, rep = best_underapprox(Fraction(11, 24), 2)
    assert value == Fraction(9, 20)
    assert tuple(rep) == (4, 5)


def test_zero_terms():
    for x in (Fraction(1, 7), Fraction(5), Fraction(11, 24)):
        value, rep = best_underapprox(x, 0)
        assert value == 0
        assert tuple(rep) == ()


def test_unit_target_fixture():
    value, rep = best_underapprox(Fraction(1), 4)
    assert tuple(rep) == (2, 3, 7, 43)
    assert value == Fraction(1805, 1806)


def test_harmonic_clamp():
    for n in (1, 2, 3):
        value, rep = best_underapprox(harmonic(n) + Fraction(1, 999), n)
        assert value == harmonic(n)
        assert tuple(rep) == tuple(range(1, n + 1))


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        best_underapprox(Fraction(0), 2)
    with pytest.raises(ValueError):
        best_underapprox(Fraction(-3, 7), 1)


def test_node_budget_exceeded_is_raised():
    with pytest.raises(NodeBudgetExceeded):
        best_underapprox(Fraction(11, 24), 3, node_budget=2)


def test_matches_bruteforce_oracle(rng):
    for _ in range(25):
        x = random_rational(rng, max_den=48)
        for n in (1, 2, 3):
            value, rep = best_underapprox(x, n)
            cap = max(4 * x.denominator**2, max(rep, default=1))
            oracle = brute_best(x, n, cap)
            assert oracle is not None
            assert oracle[0] == value
            assert sum(Fraction(1, m) for m in rep) == value
            assert value < x


def test_monotone_in_x_and_n(rng):
    for _ in range(20):
        x = random_rational(rng, max_den=60)
        y = x + Fraction(1, rng.randrange(2, 400))
        prev = Fraction(-1)
        for n in range(0, 4):
            vx, _ = best_underapprox(x, n)
            vy, _ = best_underapprox(y, n)
            assert vx <= vy
            assert vx > prev  # strictly increasing in n
            prev = vx
            assert greedy_value(x, n) <= vx


def test_lexicographic_tie_break():
    # 7/12 = 1/2 + 1/12 = 1/3 + 1/4: just above it both pairs are optimal
    x = Fraction(7, 12) + Fraction(1, 10**6)
    value, rep = best_underapprox(x, 2)
    assert value == Fraction(7, 12)
    assert tuple(rep) == (2, 12)  # lexicographically before (3, 4)


def test_has_representation_examples():
    assert tuple(has_representation(Fraction(1, 2), 2)) == (3, 6)
    assert tuple(has_representation(Fraction(1, 2), 1)) == (2,)
    assert has_representation(Fraction(1, 2), 2, max_denom=5) is None


def test_has_representation_witness_is_valid(rng):
    for _ in range(30):
        x = random_rational(rng, max_den=24, hi=Fraction(3, 2))
        for j in (1, 2, 3):
            witness = has_representation(x, j)
            if witness is not None:
                assert len(witness) == j
                assert witness.value() == x


def test_has_representation_rejects_bad_args():
    with pytest.raises(ValueError):
        has_representation(Fraction(0), 2)
    with pytest.raises(ValueError):
        has_representation(Fraction(1, 2), 0)


def test_has_representation_matches_oracle(rng):
    # the same witness, or None, as the Fraction search with no budget; half
    # the targets are sums of j unit fractions, so a witness exists, and
    # either kind may exceed 1 (m = 1 allowed)
    dens = {1: 1000, 2: 400, 3: 60, 4: 24}
    calls = found = capped = above_one = 0
    for _ in range(1300):
        j = rng.randrange(1, 5)
        if rng.random() < 0.5:
            q = sum(Fraction(1, m) for m in rng.sample(range(1, dens[j] + 1), j))
        else:
            den = rng.randrange(1, dens[j] + 1)
            q = Fraction(rng.randrange(1, 3 * den), den)
        above_one += q > 1
        witness = has_representation(q, j)
        expected = oracle_has_rep.has_representation(q, j)
        assert (None if witness is None else tuple(witness)) == expected, (q, j)
        calls += 1
        if witness is None:
            caps = [rng.randrange(1, 2 * dens[j])]
        else:
            found += 1
            # below the witness's largest denominator, at it and above it
            top = max(witness)
            caps = [top - 1, top, top + rng.randrange(1, 30)]
        for max_denom in caps:
            witness = has_representation(q, j, max_denom)
            expected = oracle_has_rep.has_representation(q, j, max_denom)
            assert (None if witness is None else tuple(witness)) == expected, (q, j, max_denom)
            calls += 1
            capped += witness is None and expected is None
    assert calls >= 4000 and found > 700 and capped > 700 and above_one > 350


def test_has_representation_budget_contract(budgets, rng):
    # the units U an unlimited search spends are exactly enough: budget U
    # gives the same witness (or None) and U - 1 raises
    cases = [(Fraction(3, 1003), 2, None), (Fraction(1, 2), 2, None), (Fraction(1, 2), 2, 5),
             (Fraction(9, 20), 2, 5), (Fraction(3, 2), 2, None), (Fraction(1), 4, None)]
    for _ in range(40):
        j = rng.randrange(1, 5)
        q = random_rational(rng, max_den=(200, 200, 40, 12)[j - 1], hi=Fraction(5, 2))
        cases.append((q, j, rng.choice((None, rng.randrange(1, 100)))))
    unlimited = 10**7
    for q, j, max_denom in cases:
        budgets.clear()
        result = has_representation(q, j, max_denom, node_budget=unlimited)
        units = unlimited - budgets[0].left
        assert has_representation(q, j, max_denom, node_budget=units) == result
        with pytest.raises(NodeBudgetExceeded):
            has_representation(q, j, max_denom, node_budget=units - 1)
    # 3/1009 has no two-term representation: the root, then a node and a
    # loop step for each first denominator m in (1009/3, 2018/3]
    budgets.clear()
    assert has_representation(Fraction(3, 1009), 2, node_budget=unlimited) is None
    assert unlimited - budgets[0].left == 1 + 2 * (672 - 336)


def test_has_representation_raises_within_its_budget():
    # 3/1000003 has no two-term representation, and proving that takes about
    # 667,000 units, two for each first denominator in (1000003/3, 2000006/3)
    with _deadline(1.0):
        with pytest.raises(NodeBudgetExceeded):
            has_representation(Fraction(3, 1000003), 2, node_budget=10**5)


def test_every_engine_checks_the_term_limit_before_any_work():
    # every level argument is checked against the limit of 12 before any
    # sum or search: has_representation(2/3, 30) would spend minutes on
    # thousand-bit denominators, and chain_check(11/24, 0, 13) would run
    # out of budget at level 6 before it reached level 13
    half = Fraction(1, 2)
    table = [
        (best_underapprox, (half, 13)),
        (greedy_underapprox, (half, 13)),
        (next_regular_above, (half, 13)),
        (has_representation, (Fraction(2, 3), 30, None, 10**5)),
        (next_point_above, (half, 13)),
        (cell_of, (half, 13)),
        (cells_in_window, (Fraction(1, 4), Fraction(1, 3), 13)),
        (chain_check, (Fraction(11, 24), 0, 13)),
        (sample_chain_density, (2, 13, 3, 0, 32, 1000)),
    ]
    for engine, args in table:
        with _deadline(1.0):
            with pytest.raises(ValueError, match=r"^[ntj]=(13|30) exceeds the term limit 12$"):
                engine(*args)


@pytest.mark.parametrize("bad", [True, False, 2.0, Fraction(2), "2"],
                         ids=["True", "False", "float", "Fraction", "str"])
def test_every_level_argument_is_an_int(bad):
    # level_harmonic, every engine's level check, refuses a level that is no
    # int, as the max_cells check does: True ran as level 1 and 2.0 raised
    # TypeError from range; the value shows by its repr
    half, shown = Fraction(1, 2), repr(bad)
    table = [
        (best_underapprox, (half, bad), "best_underapprox() needs n >= 0"),
        (greedy_underapprox, (half, bad), "greedy_underapprox() needs n >= 0"),
        (next_regular_above, (half, bad), "next_regular_above() needs n >= 1"),
        (has_representation, (Fraction(2, 3), bad), "has_representation() needs j >= 1"),
        (next_point_above, (half, bad), "next_point_above() needs n >= 1"),
        (cell_of, (half, bad), "cell_of() needs n >= 1"),
        (cells_in_window, (Fraction(1, 4), Fraction(1, 3), bad), "cells_in_window() needs n >= 1"),
        (refinement_check, (half, bad), "refinement_check() needs n >= 2"),
        (sample_chain_density, (bad, 3, 3, 0, 32), "sample_chain_density() needs s >= 1"),
        (sample_chain_density, (1, bad, 3, 0, 32), "sample_chain_density() needs t >= 1"),
    ]
    for engine, args, message in table:
        with pytest.raises(ValueError) as info:
            engine(*args)
        assert str(info.value) == f"{message}, got {shown}", engine
    for n0, t in ((bad, 3), (0, bad)):
        with pytest.raises(ValueError) as info:
            chain_check(Fraction(11, 24), n0, t)
        assert str(info.value) == f"need 0 <= n0 < t, got n0={n0!r}, t={t!r}"


@pytest.mark.parametrize("bad", [2.5, True, False, "100", Fraction(100)],
                         ids=["float", "True", "False", "str", "Fraction"])
def test_every_node_budget_is_none_or_an_int(bad):
    # _Budget, which every engine builds, checks node_budget: 2.5 raised
    # TypeError mid-search and True ran as a budget of 1
    x, q = Fraction(11, 24), Fraction(9, 20)
    calls = [
        lambda: best_underapprox(x, 3, node_budget=bad),
        lambda: best_underapprox(x, 1, node_budget=bad),  # no search runs at n = 1
        lambda: has_representation(q, 2, node_budget=bad),
        lambda: next_point_above(q, 2, node_budget=bad),
        lambda: cell_of(x, 2, node_budget=bad),
        lambda: cells_in_window(Fraction(1, 3), Fraction(1, 2), 2, 3, node_budget=bad),
        lambda: cells_in_window(Fraction(1, 3), Fraction(1, 2), 1, 3, node_budget=bad),
        lambda: refinement_check(x, 2, node_budget=bad),
        lambda: chain_check(x, 2, 4, node_budget=bad),
        lambda: sample_chain_density(2, 3, 3, 0, 32, node_budget=bad),
        lambda: lemma1_certificate(1000, "paper", node_budget=bad),
        lambda: lemma1_certificate(20, "direct", node_budget=bad),
        lambda: lemma1_certificate(20, "exact", node_budget=bad),
        lambda: nongreedy_two_term_measure(20, node_budget=bad),
        lambda: cell_decay_bound(Cell(2, Fraction(1, 3), Fraction(23, 60), None), 26, "exact", bad),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"node_budget must be None or an int, got {bad!r}"


def test_next_point_above_examples():
    assert next_point_above(Fraction(1, 2), 1) == 1
    assert next_point_above(Fraction(1, 3), 1) == Fraction(1, 2)
    assert next_point_above(Fraction(5, 6), 2) == 1


def test_next_point_above_precondition_violations():
    with pytest.raises(ShorterRepresentationError) as info:
        next_point_above(Fraction(1, 2), 2)  # 1/2 is already a unit fraction
    assert tuple(info.value.witness) == (2,)
    assert str(info.value) == "1/2 already has the 1-term representation (2,)"
    with pytest.raises(ValueError):
        next_point_above(Fraction(2, 7), 1)  # not a unit fraction
    with pytest.raises(ValueError):
        next_point_above(Fraction(0), 1)
    with pytest.raises(ValueError):
        next_point_above(Fraction(-1, 2), 1)


def test_raises_name_long_operands_under_the_default_digit_limit():
    # the fail-fast bounds here pass 2^16000 units, and q and its witness
    # have 5001 digits: each call raises its own error, not the
    # interpreter's int-to-str ValueError
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for args in [(Fraction(1, 10**30), 12), (Fraction(1, 2**32), 11, 30000)]:
            with pytest.raises(NodeBudgetExceeded) as info:
                best_underapprox(*args)
            assert len(str(info.value)) < 300 and "needs at least 2^" in str(info.value)
        with pytest.raises(ShorterRepresentationError) as info:
            next_point_above(Fraction(1, 10**5000), 2)
        assert tuple(info.value.witness) == (10**5000,)
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("call, message", [
    (lambda: wilson_interval(0, -10**5000), r"needs trials >= 1, got -1\d{5000}$"),
    (lambda: wilson_interval(-10**5000, 5), r"successes <= trials, got -1\d{5000}/5$"),
    (lambda: refinement_check(Fraction(1, 2), -10**5000), r"needs n >= 2, got -1\d{5000}$"),
    (lambda: xk(-10**5000, 0), r"needs i >= 2, got -1\d{5000}$"),
    (lambda: xk(5, -10**5000), r"needs 0 <= k <= 3, got -1\d{5000}$"),
    (lambda: next(_kernels.iter_min_competitors(-10**5000)), r"need i >= 2, got -1\d{5000}$"),
    (lambda: next(_kernels.iter_direct_terms(-10**5000)), r"need i >= 2, got -1\d{5000}$"),
], ids=["wilson_trials", "wilson_successes", "refinement_check", "xk_i", "xk_k",
        "iter_min_competitors", "iter_direct_terms"])
def test_argument_errors_name_long_ints_under_the_default_digit_limit(call, message):
    # each raises its own ValueError, not the interpreter's int-to-str one
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as info:
            call()
    finally:
        sys.set_int_max_str_digits(saved)
    assert re.search(message, str(info.value))


def test_next_point_above_rejects_values_without_a_next_point():
    # H_n is the largest sum of at most n unit fractions, and at n = 2 the
    # sums 1 + 1/b above 1 have no least element: neither value has a
    # point within the cell-length bound 1/(n(n+1)) above it
    with _deadline(1.0):
        for n in (2, 3):
            with pytest.raises(ValueError, match=r"needs q < H_"):
                next_point_above(harmonic(n), n)
        with pytest.raises(ValueError, match="not a level-2 best value"):
            next_point_above(Fraction(1), 2, check=False)


def test_next_point_above_checks_spend_its_budget(budgets, rng):
    # with check=True a call spends its check=False units plus the units of
    # its precondition searches, has_representation(q, j) for j = 1..n
    unlimited = 10**7
    for n, draws in ((1, 5), (2, 8), (3, 8), (4, 3)):
        for _ in range(draws):
            x = random_rational(rng, max_den=60, hi=harmonic(n))
            q, _ = best_underapprox(x, n)
            budgets.clear()
            value = next_point_above(q, n, node_budget=unlimited, check=False)
            search_units = unlimited - budgets[0].left
            check_units = 0
            for j in range(1, n + 1):
                budgets.clear()
                assert (has_representation(q, j, node_budget=unlimited) is None) == (j < n)
                check_units += unlimited - budgets[0].left
            budgets.clear()
            assert next_point_above(q, n, node_budget=unlimited) == value
            assert unlimited - budgets[0].left == search_units + check_units, (q, n)
            with pytest.raises(NodeBudgetExceeded):
                next_point_above(q, n, node_budget=check_units)


def test_next_point_above_is_cell_right_endpoint(rng):
    # constancy of the best value on (q, r], probed at r and the midpoint
    for n in (1, 2, 3):
        for _ in range(10):
            x = random_rational(rng, max_den=90, hi=harmonic(n))
            q, _ = best_underapprox(x, n)
            if q == 0:
                continue
            r = next_point_above(q, n, check=False)
            assert r > q
            assert x <= r
            assert best_underapprox(r, n)[0] == q
            assert best_underapprox((q + r) / 2, n)[0] == q


def test_witness_is_lexicographically_smallest():
    # targets just above sums that have several representations, such as
    # 7/12 = 1/2 + 1/12 = 1/3 + 1/4 and 11/12 = 1/2 + 1/3 + 1/12 = 1/2 + 1/4 + 1/6
    reps = {}
    for a in range(2, 13):
        for b in range(a + 1, 25):
            reps.setdefault(Fraction(1, a) + Fraction(1, b), []).append(2)
            for c in range(b + 1, 25):
                s = Fraction(1, a) + Fraction(1, b) + Fraction(1, c)
                reps.setdefault(s, []).append(3)
    ties = 0
    for n in (2, 3):
        # a sum with a shorter representation is a limit of n-term sums
        # from above, so it is never a best value
        tied = sorted(s for s, ns in reps.items() if ns.count(n) > 1
                      and all(has_representation(s, j) is None for j in range(1, n)))
        for s in tied[:: max(1, len(tied) // 60)]:
            x = s + Fraction(1, 10**9)
            value, rep = best_underapprox(x, n)
            assert brute_best(x, n, max(2000, max(rep))) == (value, tuple(rep)), (x, n)
            ties += value == s
    assert ties > 100


def test_budget_contract(budgets, rng):
    # the units U an unlimited run spends are exactly enough: budget U gives
    # the same answer and U - 1 raises, however early the search gives up
    cases = [
        (Fraction(3, 101), 3),  # small x: scans of thousands of steps
        (Fraction(3, 1001), 3),
        (Fraction(1, 97) + Fraction(1, 10**5), 3),
        (Fraction(11, 24), 5),
        (Fraction(9, 10), 5),
        (Fraction(7, 9), 5),
    ]
    cases += [(random_rational(rng, max_den=200, hi=Fraction(3, 2)), n)
              for n in (3, 4, 5) for _ in range(8)]
    # n = 2: the whole search is the root's scan
    cases += [(Fraction(3, 1001), 2), (Fraction(1, 97) + Fraction(1, 10**5), 2),
              (Fraction(1, 5000) + Fraction(1, 10**9), 2), (Fraction(11, 24), 2)]
    cases += [(random_rational(rng, max_den=2000, hi=Fraction(3, 2)), 2) for _ in range(8)]
    unlimited = 10**7
    checked = 0
    for x, n in cases:
        budgets.clear()
        try:
            result = best_underapprox(x, n, node_budget=unlimited)
        except NodeBudgetExceeded:
            continue
        units = unlimited - budgets[0].left
        assert best_underapprox(x, n, node_budget=units) == result, (x, n)
        with pytest.raises(NodeBudgetExceeded):
            best_underapprox(x, n, node_budget=units - 1)
        checked += 1
    assert checked >= 30


def test_over_budget_subtree_raises_before_its_children(budgets):
    # the root's children are certain to spend 165,099 units (unlimited, the
    # search spends 165,100 with the root's own), far more than 100,000
    x = Fraction(1, 97) + Fraction(1, 10**5)
    with pytest.raises(NodeBudgetExceeded) as info:
        best_underapprox(x, 3, node_budget=100_000)
    assert budgets[0].left == 99_999  # only the root's entry unit is spent
    need, left = _named_bound(info.value)
    assert need > left == 99_999


def test_over_budget_scan_raises_before_its_first_step(budgets):
    # x = 1/10^15: the root's scan runs past a = 10^15 whatever the
    # incumbent, so a budget of a million units is known to be short
    # before its first step
    with _deadline(1.0):
        with pytest.raises(NodeBudgetExceeded) as info:
            best_underapprox(Fraction(1, 10**15), 2, node_budget=10**6)
    assert budgets[0].left == 10**6 - 1  # only the root's entry unit is spent
    need, left = _named_bound(info.value)
    assert need > left == 10**6 - 1


def test_certain_scan_work_never_exceeds_the_scan(rng):
    # with two terms left the bound is the scan's certain length: below any
    # threshold under the gap g, the linear scan spends at least that much
    tight = 0
    for _ in range(300):
        if rng.random() < 0.3:  # denominators >= 2^70
            gd = rng.randrange(2**70, 2**75)
            gn = rng.randrange(gd // 3000, gd // 2)
        else:
            gd = rng.randrange(1, 10**5)
            gn = rng.randrange(1, gd // rng.choice((1, 30, 1000)) + 2)  # also g >= 1
        first = gd // gn + 1  # the scan's first a, around 1/g
        a_min = max(first, rng.choice((first, 2 * gd // gn)) + rng.randrange(-3, 30))
        scale = rng.randrange(1, 4)  # the search passes the gap unreduced
        bound = search._certain_work(gn * scale, gd * scale, 2, a_min, 0)
        for thr_n, thr_d in ((0, 1), (gn * 10**6 - 1, gd * 10**6),
                             (rng.randrange(gn * 1000), gd * 1000)):
            for allow_equal in (False, True):
                iters = linear_two_term_max_below(gn, gd, a_min, thr_n, thr_d, allow_equal)[5]
                assert bound <= iters, (gn, gd, a_min, thr_n, thr_d, allow_equal)
                tight += bound == iters
    assert tight > 300


def test_next_point_above_matches_oracle(budgets, rng):
    # the same value and the same budget left, or a raise on both sides
    for n, draws in ((1, 10), (2, 10), (3, 8), (4, 5)):
        for _ in range(draws):
            x = random_rational(rng, max_den=90, hi=harmonic(n))
            q, _ = best_underapprox(x, n)
            for limit in (40, 400, 4_000, 40_000):
                budgets.clear()
                oracle_budget = _Budget(limit)
                try:
                    expected = oracle_min_above.next_point_above(q, n, oracle_budget)
                except NodeBudgetExceeded:
                    with pytest.raises(NodeBudgetExceeded):
                        next_point_above(q, n, node_budget=limit, check=False)
                    # the searches' units are counted before any of them runs
                    assert budgets[0].left == limit, (q, n, limit)
                    continue
                assert next_point_above(q, n, node_budget=limit, check=False) == expected
                assert budgets[0].left == oracle_budget.left, (q, n, limit)


def test_min_above_work_counts_the_oracle_units(rng):
    # the count is the units the Fraction search spends, also where a
    # consecutive run lands exactly on q; past limit it stops in (limit, U];
    # the recursive min finds the oracle's point, also where the last gap
    # is a unit fraction 1/m and the leaf must take m - 1
    qs = [sum(Fraction(1, m + t) for t in range(r)) for m in range(1, 7) for r in (2, 3, 4)]
    qs += [sum(Fraction(1, rng.randrange(2, 30)) for _ in range(rng.randrange(1, 4)))
           for _ in range(40)]
    counted = 0
    for q in qs:
        for j in range(1, 5):
            budget = _Budget(5_000)
            try:
                point = oracle_min_above.min_jterm_above(q, j, q + 1, budget)
            except NodeBudgetExceeded:
                continue
            assert search._min_jterm_above(q, Fraction(0), j, 0) == point, (q, j)
            units = 5_000 - budget.left
            for limit in sorted({*range(min(units, 60) + 1), units - 1, units, 10**9}):
                work = search._min_above_work(q.numerator, q.denominator, j, 0, limit)
                assert work == units if units <= limit else limit < work <= units, (q, j, limit)
            counted += 1
    assert counted >= 150


def test_next_point_above_budget_contract(budgets, rng):
    # the units U a run within 50,000 spends are exactly enough: budget U
    # gives the same point and U - 1 raises before any search node is spent
    unlimited = 50_000
    checked = 0
    for n, draws in ((2, 10), (3, 10), (4, 6)):
        for _ in range(draws):
            x = random_rational(rng, max_den=90, hi=harmonic(n))
            q, _ = best_underapprox(x, n)
            budgets.clear()
            try:
                point = next_point_above(q, n, node_budget=unlimited, check=False)
            except NodeBudgetExceeded:
                continue
            units = unlimited - budgets[0].left
            assert next_point_above(q, n, node_budget=units, check=False) == point, (q, n)
            assert budgets[1].left == 0
            with pytest.raises(NodeBudgetExceeded) as info:
                next_point_above(q, n, node_budget=units - 1, check=False)
            assert budgets[2].left == units - 1
            assert _named_bound(info.value) == (units, units - 1)
            checked += 1
    assert checked >= 24


def test_next_point_above_raises_before_its_searches(budgets):
    # the j = 1 search finds 1/10 at once, yet the j = 2..4 searches walk
    # 321,850 units in all: they never prune against an incumbent
    q, _ = best_underapprox(Fraction(1, 10), 4)
    assert q == Fraction(222297098047124, 2222970980471241)
    budgets.clear()
    assert next_point_above(q, 4, node_budget=10**6, check=False) == Fraction(1, 10)
    assert 10**6 - budgets[0].left == 321_850
    with _deadline(1.0):
        with pytest.raises(NodeBudgetExceeded) as info:
            next_point_above(q, 4, node_budget=10**5, check=False)
    assert budgets[1].left == 10**5
    need, left = _named_bound(info.value)
    assert need > left == 10**5

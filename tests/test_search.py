import re
from fractions import Fraction

import pytest

import oracle_min_above
from conftest import random_rational
from egy import search
from egy.greedy import greedy_value
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


@pytest.fixture
def budgets(monkeypatch):
    """Every budget object the search creates, in order of creation."""
    made = []

    class Recorded(_Budget):
        __slots__ = ()

        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(search, "_Budget", Recorded)
    return made


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
    # 1/2 = 1/3 + 1/6 = 1/4 + 1/4 (invalid); values 1/a + 1/b tie rarely,
    # so build one: x just above 5/6 makes both [2,3] optimal and unique,
    # but 5/6 = 1/2 + 1/3 only; use a genuine tie instead:
    # 1/3 + 1/8 = 11/24 = 1/4 + 1/5 + 1/120... two-term ties:
    # 1/2 + 1/12 = 7/12 = 1/3 + 1/4.  Probe just above 7/12.
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


def test_next_point_above_examples():
    assert next_point_above(Fraction(1, 2), 1) == 1
    assert next_point_above(Fraction(1, 3), 1) == Fraction(1, 2)
    assert next_point_above(Fraction(5, 6), 2) == 1


def test_next_point_above_precondition_violations():
    with pytest.raises(ShorterRepresentationError) as info:
        next_point_above(Fraction(1, 2), 2)  # 1/2 is already a unit fraction
    assert tuple(info.value.witness) == (2,)
    with pytest.raises(ValueError):
        next_point_above(Fraction(2, 7), 1)  # not a unit fraction
    with pytest.raises(ValueError):
        next_point_above(Fraction(0), 1)
    with pytest.raises(ValueError):
        next_point_above(Fraction(-1, 2), 1)


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
    assert checked >= 20


def test_over_budget_subtree_raises_before_its_children(budgets):
    # the root's children are certain to spend 165,099 units (unlimited, the
    # search spends 165,100 with the root's own), far more than 100,000
    x = Fraction(1, 97) + Fraction(1, 10**5)
    with pytest.raises(NodeBudgetExceeded) as info:
        best_underapprox(x, 3, node_budget=100_000)
    assert budgets[0].left == 99_999  # only the root's entry unit is spent
    need, left = map(int, re.search(r"needs at least (\d+) more units, (\d+) left",
                                    str(info.value)).groups())
    assert need > left == 99_999


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
                    continue
                assert next_point_above(q, n, node_budget=limit, check=False) == expected
                assert budgets[0].left == oracle_budget.left, (q, n, limit)

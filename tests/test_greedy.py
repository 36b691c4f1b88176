from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from egy.greedy import DEFAULT_MAX_TERMS, greedy_gap, greedy_underapprox, greedy_value
from egy.rational import rep_value

positive_rationals = st.fractions(min_value=Fraction(1, 10**6), max_value=100)


def test_counterexample_fixture():
    assert list(greedy_underapprox(Fraction(11, 24), 2)) == [3, 9]
    assert greedy_value(Fraction(11, 24), 2) == Fraction(4, 9)


def test_forced_strictness():
    assert list(greedy_underapprox(Fraction(1, 2), 1)) == [3]


def test_unit_target():
    assert list(greedy_underapprox(Fraction(1), 4)) == [2, 3, 7, 43]


def test_gap_examples():
    assert greedy_gap(Fraction(1), 1) == Fraction(1, 2)
    assert greedy_gap(Fraction(11, 24), 2) == Fraction(1, 72)
    assert greedy_gap(Fraction(1, 2), 1) == Fraction(1, 6)


@pytest.mark.parametrize("x", [0, Fraction(-1, 2)])
def test_rejects_nonpositive(x):
    with pytest.raises(ValueError):
        greedy_underapprox(x, 1)


def test_rejects_negative_n_and_cap():
    with pytest.raises(ValueError):
        greedy_underapprox(Fraction(1, 2), -1)
    with pytest.raises(ValueError):
        greedy_underapprox(Fraction(1, 2), DEFAULT_MAX_TERMS + 1)


@given(positive_rationals, st.integers(min_value=0, max_value=6))
def test_strict_underapproximation(x, n):
    assert greedy_value(x, n) < x


@given(positive_rationals, st.integers(min_value=0, max_value=5))
def test_prefix_property(x, n):
    shorter = tuple(greedy_underapprox(x, n))
    longer = tuple(greedy_underapprox(x, n + 1))
    assert longer[:n] == shorter


@given(positive_rationals, st.integers(min_value=1, max_value=6))
def test_gap_bound(x, n):
    rep = greedy_underapprox(x, n)
    m_n = rep.denominators[-1]
    gap_prev = greedy_gap(x, n - 1)
    natural = gap_prev.denominator // gap_prev.numerator + 1
    # the classical bound holds whenever the step was not forced by
    # the distinctness constraint (i.e., the prior gap was small enough)
    if m_n == natural and m_n > 1:
        # equality occurs exactly when the prior gap is the unit
        # fraction 1/(m_n - 1); otherwise the bound is strict
        assert greedy_gap(x, n) <= Fraction(1, m_n * (m_n - 1))
        if gap_prev != Fraction(1, m_n - 1):
            assert greedy_gap(x, n) < Fraction(1, m_n * (m_n - 1))


@given(positive_rationals, st.integers(min_value=2, max_value=6))
def test_strictly_increasing_denominators(x, n):
    denoms = list(greedy_underapprox(x, n))
    assert all(a < b for a, b in zip(denoms, denoms[1:]))


def test_value_and_gap_match_rep_value(rng):
    # greedy_value reads the sum off the greedy loop; rep_value re-adds it
    for _ in range(300):
        x = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6))
        n = rng.randrange(0, 7)
        value = rep_value(greedy_underapprox(x, n))
        assert greedy_value(x, n) == value
        assert greedy_gap(x, n) == x - value
    assert greedy_value(Fraction(3), 0) == 0


@pytest.mark.parametrize("call", [greedy_value, greedy_gap])
def test_value_and_gap_validate_arguments(call):
    for x, n, message in ((Fraction(0), 1, "needs x > 0"), (Fraction(-1, 2), 1, "needs x > 0"),
                          (Fraction(1, 2), -1, "needs n >= 0"),
                          (Fraction(1, 2), DEFAULT_MAX_TERMS + 1, "n=13 exceeds the term limit 12")):
        with pytest.raises(ValueError, match=message):
            call(x, n)

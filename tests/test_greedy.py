from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle_greedy
from egy.greedy import (
    DEFAULT_MAX_TERMS,
    greedy_completion,
    greedy_gap,
    greedy_underapprox,
    greedy_value,
)
from egy.measure import chain_check
from egy.partition import cell_of, next_regular_above, refinement_check
from egy.rational import rep_value
from egy.search import best_underapprox, has_representation, next_point_above

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


def _same_as_oracle(xn, xd, r):
    """greedy_completion on the pair against the Fraction oracle; the
    returned pair must be reduced with a positive denominator, because
    ``_from_reduced`` turns it into a Fraction without a gcd."""
    denoms, vn, vd = greedy_completion(xn, xd, r)
    assert vd > 0 and gcd(vn, vd) == 1, (xn, xd, r)
    want = oracle_greedy.greedy_completion(Fraction(xn, xd), r)
    assert (denoms, Fraction(vn, vd)) == want, (xn, xd, r)


def test_completion_against_fraction_oracle(rng):
    cases = forced = 0
    for _ in range(2500):
        if rng.getrandbits(1):
            xn, xd = rng.randrange(1, 2**33), 2**32  # dyadic, as the samples draw
        else:
            xd = rng.randrange(1, 10**rng.randrange(1, 13))
            xn = rng.randrange(1, 3 * xd)
        # an unreduced x, up to 3: past x = 2 distinctness forces m up
        k = rng.choice((1, 1, 2, 6, 2**61 - 1))
        forced += xn > 2 * xd
        for r in range(7):
            _same_as_oracle(k * xn, k * xd, r)
            cases += 1
    assert cases == 17_500 and forced > 300


def test_completion_of_tiny_x_at_the_term_limit():
    # 1/10^30 has 100 bits, and its twelfth greedy denominator about 200,000
    _same_as_oracle(1, 10**30, DEFAULT_MAX_TERMS)
    _same_as_oracle(7, 7 * 10**30, DEFAULT_MAX_TERMS)


_X_ENGINES = {
    "greedy_underapprox": lambda x: greedy_underapprox(x, 2),
    "greedy_value": lambda x: greedy_value(x, 2),
    "greedy_gap": lambda x: greedy_gap(x, 2),
    "best_underapprox": lambda x: best_underapprox(x, 2),
    "cell_of": lambda x: cell_of(x, 2),
    "refinement_check": lambda x: refinement_check(x, 2),
    "next_regular_above": lambda x: next_regular_above(x, 2),
    "chain_check": lambda x: chain_check(x, 0, 3),
    "has_representation": lambda x: has_representation(x, 2),
    "next_point_above": lambda x: next_point_above(x, 2),
}


def _outcome(run, x):
    try:
        return "ok", run(x)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("engine", sorted(_X_ENGINES))
@pytest.mark.parametrize("x", ["11/24", Decimal("0.5"), 0.5, 1])
def test_engines_coerce_x_like_fraction(engine, x):
    # every engine that takes x accepts what Fraction() accepts, with the
    # result or the error of Fraction(x)
    run = _X_ENGINES[engine]
    assert _outcome(run, x) == _outcome(run, Fraction(x))

import pickle
import random
import sys
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egy.rational
from egy.greedy import greedy_underapprox
from egy.lemma1 import lemma1_certificate
from egy.rational import (
    _WIDE,
    _add_reduced,
    EgyptianRep,
    format_rational,
    format_rational_scaled,
    harmonic,
    make_rep,
    parse_rational,
    rep_value,
    sum_exact,
    sum_pairs,
)

rationals = st.fractions(min_value=-1000, max_value=1000)
# few distinct denominators, so that many addends share factors or repeat
shared_denominators = st.builds(
    Fraction,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([1, 2, 3, 4, 6, 12, 35, 360, 2**61 - 1, 6 * (2**61 - 1), 10**30]),
)
addends = st.one_of(rationals, shared_denominators, st.just(Fraction(0)),
                    st.fractions(min_value=-1, max_value=1, max_denominator=10**40))
addend_lists = st.one_of(
    st.lists(addends, max_size=40),
    st.lists(addends, max_size=12).map(lambda xs: xs + xs),  # repeated values
    st.lists(addends, max_size=12).map(lambda xs: xs + [-x for x in reversed(xs)]),  # sum 0
)


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(5) == Fraction(137, 60)


def test_harmonic_rejects_negative():
    with pytest.raises(ValueError):
        harmonic(-1)


@given(st.integers(min_value=1, max_value=200))
def test_harmonic_difference(n):
    assert harmonic(n) - harmonic(n - 1) == Fraction(1, n)


def test_rep_value_examples():
    assert rep_value(make_rep([2, 3])) == Fraction(5, 6)
    assert rep_value(make_rep([])) == 0
    assert rep_value(make_rep([3, 9])) == Fraction(4, 9)


@pytest.mark.parametrize("bad", [[2, 2], [3, 2], [0, 1], [-1, 2], [5, 5, 6]])
def test_rep_rejects_non_increasing(bad):
    with pytest.raises(ValueError):
        make_rep(bad)


def test_rep_rejects_non_integer_denominators():
    # make_rep reads each value as Fraction(m) does, and an integer value is kept
    assert make_rep(["4", "5"]) == make_rep([Fraction(8, 2), 5.0]) == EgyptianRep((4, 5))
    with pytest.raises(ValueError, match=r"positive integers, got \(5/2, 3\)$"):
        make_rep([2.5, 3])
    with pytest.raises(ValueError, match=r"positive integers, got \(2, 7/3\)$"):
        make_rep(["2", "7/3"])
    # the record itself takes ints only: a bool or a float passes an order
    # check and would fail only later, in rep_value
    for bad, shown in [((2.0, 3), "2.0, 3"), ((True, 2), "True, 2"), ((2, "3"), "2, '3'")]:
        with pytest.raises(ValueError, match=rf"positive integers, got \({shown}\)$"):
            EgyptianRep(bad)


@given(st.sets(st.integers(min_value=1, max_value=10**6), min_size=0, max_size=8))
def test_rep_value_round_trip(denoms):
    rep = make_rep(sorted(denoms))
    expected = sum(Fraction(1, m) for m in sorted(denoms))
    assert rep.value() == expected
    assert rep_value(rep) == Fraction(expected.numerator, expected.denominator)


@given(rationals, rationals)
def test_exactness(a, b):
    assert (a + b) - b == a


@given(st.lists(rationals, max_size=60))
def test_sum_exact_matches_builtin(values):
    assert sum_exact(values) == sum(values, Fraction(0))
    assert isinstance(sum_exact(values), Fraction)


@given(addend_lists)
def test_sum_pairs_is_exact_and_reduced(values):
    total = sum_pairs((v.numerator, v.denominator) for v in values)
    expected = sum(values, Fraction(0))
    assert type(total) is Fraction
    num, den = total.numerator, total.denominator
    assert den > 0 and gcd(num, den) == 1
    assert (num, den) == (expected.numerator, expected.denominator)
    assert hash(total) == hash(Fraction(num, den)) == hash(expected)
    assert {expected: 1}[total] == 1
    assert str(total) == str(expected) and repr(total) == repr(expected)
    assert total + Fraction(1, 3) == expected + Fraction(1, 3)
    assert pickle.loads(pickle.dumps(total)) == expected
    assert sum_exact(values) == expected


def test_sum_pairs_empty_and_single():
    assert sum_pairs([]) == 0 and sum_pairs([]).denominator == 1
    assert sum_pairs([(-7, 3)]) == Fraction(-7, 3)
    assert sum_pairs(iter([(1, 6), (-1, 6)])).denominator == 1
    assert sum_exact([]) == 0 and sum_exact([]).denominator == 1
    assert sum_exact([Fraction(5, 4)]) == Fraction(5, 4)


@pytest.mark.parametrize("length", [0, 1, 1023, 1024, 1025, 2049])
def test_sum_pairs_on_one_shot_generators(length):
    # streams read once, of lengths around powers of two
    rng = random.Random(length)
    values = [Fraction(rng.randrange(-(10**6), 10**6), rng.choice((1, 6, 35, rng.randrange(1, 10**9))))
              for _ in range(length)]
    stream = ((v.numerator, v.denominator) for v in values)
    total = sum_pairs(stream)
    assert next(stream, None) is None  # read once, to the end
    expected = sum(values, Fraction(0))
    assert (total.numerator, total.denominator) == (expected.numerator, expected.denominator)
    assert gcd(total.numerator, total.denominator) == 1


# sum_pairs takes narrow pairs unreduced and wide ones (1024 bits or more) reduced
WIDE_BITS = _WIDE.bit_length() - 1
narrow_values = st.one_of(st.just(Fraction(0)), rationals, shared_denominators,
                          st.fractions(min_value=-1, max_value=1, max_denominator=2**900))
wide_values = st.builds(lambda n, extra, odd: Fraction(2 * n + 1, odd << (WIDE_BITS + extra)),
                        st.integers(min_value=-(10**30), max_value=10**30),
                        st.integers(min_value=0, max_value=64), st.sampled_from([1, 3, 5, 15]))


def _raw_pairs(values, factor):
    """Narrow values as (num, den) scaled by one shared factor, so not
    reduced; wide values as their reduced parts."""
    return [(v.numerator, v.denominator) if v.denominator >= _WIDE
            else (v.numerator * factor, v.denominator * factor) for v in values]


def _assert_reduced_sum(total, values):
    expected = sum(values, Fraction(0))
    assert type(total) is Fraction
    assert (total.numerator, total.denominator) == (expected.numerator, expected.denominator)
    assert total.denominator > 0 and gcd(total.numerator, total.denominator) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(narrow_values, narrow_values, narrow_values, wide_values), max_size=80),
       st.integers(min_value=1, max_value=2**64))
def test_sum_pairs_takes_unreduced_narrow_pairs(values, factor):
    assert all(v.denominator * factor < _WIDE for v in values if v.denominator < _WIDE)
    _assert_reduced_sum(sum_pairs(_raw_pairs(values, factor)), values)


@pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 1023, 1024, 1025, 2049])
def test_sum_pairs_on_raw_pairs_around_runs_and_chunks(length):
    rng = random.Random(length)
    values = []
    for k in range(length):
        if k % 97 == 50:  # wide and reduced, closing a run
            values.append(Fraction(rng.randrange(-(2**40), 2**40) * 2 + 1, 3 << WIDE_BITS))
        else:
            num = rng.choice((0, rng.randrange(-(10**6), 10**6), -rng.randrange(1, 2**80)))
            values.append(Fraction(num, rng.choice((1, 6, rng.randrange(1, 2**70), rng.randrange(1, 2**900)))))
    factor = rng.randrange(2, 2**60)
    _assert_reduced_sum(sum_pairs(iter(_raw_pairs(values, factor))), values)


def _long_stream(rng, length):
    """Narrow values, with denominators under 2^12, and one in four wide."""
    values = []
    for _ in range(length):
        if rng.randrange(4) == 0:
            den = rng.choice((1, 3, 5, 15)) << WIDE_BITS + rng.randrange(4000)
            values.append(Fraction(rng.getrandbits(64) * 2 + 1, den))
        else:
            den = rng.choice((1, 6, 35, 360, rng.randrange(1, 2**12)))
            values.append(Fraction(rng.randrange(-(10**6), 10**6), den))
    return values


@pytest.mark.parametrize("lengths", [(0, 0), (1, 1), (2, 2), (3, 40), (3000, 3000)],
                         ids=["0", "1", "2", "3-40", "3000"])
@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=2**64),
       st.sampled_from(["ascending", "descending", "shuffled"]), st.integers(min_value=0, max_value=2**32))
def test_merge_stack_matches_fraction_addition(lengths, data, factor, order, seed):
    # narrow pairs scaled, so not reduced, and wide reduced ones, fed to the
    # stack in ascending, descending or shuffled order of their denominator's
    # width
    low, high = lengths
    rng = random.Random(seed)
    if high <= 40:
        values = data.draw(st.lists(st.one_of(narrow_values, wide_values), min_size=low, max_size=high))
    else:
        values = _long_stream(rng, high)
    pairs = _raw_pairs(values, factor)
    if order == "shuffled":
        rng.shuffle(pairs)
    else:
        pairs.sort(key=lambda pair: pair[1].bit_length(), reverse=order == "descending")
    _assert_reduced_sum(sum_pairs(iter(pairs)), values)


def test_wide_merges_do_not_depend_on_leaf_count(monkeypatch):
    # the greedy terms of 1/10^300 have denominators of 997 bits, then of
    # about 2^k times as many; summed as they are, or with the first two
    # pre-added into one leaf, the partial sums past 100k bits merge alike
    terms = [Fraction(1, m) for m in greedy_underapprox(Fraction(1, 10**300), 11)]
    merges = []

    def logged_add_reduced(an, ad, bn, bd):
        merges.append((ad.bit_length(), bd.bit_length()))
        return _add_reduced(an, ad, bn, bd)

    monkeypatch.setattr(egy.rational, "_add_reduced", logged_add_reduced)

    def huge_merges(values):
        merges.clear()
        return sum_exact(values), [m for m in merges if min(m) > 100_000]

    total, as_given = huge_merges(terms)
    fused_total, fused = huge_merges([terms[0] + terms[1], *terms[2:]])
    assert total == fused_total
    assert as_given and as_given == fused


def test_merge_stack_state_is_bounded_on_falling_widths():
    # 3000 wide pairs, each narrower than the one before: the stack keeps
    # O(log) partial sums of about the result's size, never many of the pairs
    rng = random.Random(3)
    pairs = ((rng.getrandbits(bits) | 1, 1 << bits) for bits in range(WIDE_BITS + 12_000, WIDE_BITS, -4))
    tracemalloc.start()
    try:
        total = sum_pairs(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total.denominator == 1 << WIDE_BITS + 12_000
    assert peak < 16 * (sys.getsizeof(total.numerator) + sys.getsizeof(total.denominator))


def _count_gcd_calls(monkeypatch):
    calls = [0]

    def counting_gcd(a, b):
        calls[0] += 1
        return gcd(a, b)

    monkeypatch.setattr(egy.rational, "gcd", counting_gcd)
    return calls


@pytest.mark.parametrize("case", ["one", "two", "shared 20k-bit den", "mixed widths"])
def test_wide_fractions_pay_no_gcd_of_their_own(monkeypatch, case):
    # wide pairs join the Knuth merges as they are: at most two gcds per merge
    rng = random.Random(case)
    if case == "shared 20k-bit den":
        den = rng.getrandbits(20_000) | 1 << 20_000 | 1
        values = [Fraction(rng.getrandbits(20_000), den) for _ in range(16)]
    else:
        count = {"one": 1, "two": 2, "mixed widths": 100}[case]
        values = [Fraction(rng.getrandbits(100) * 2 + 1, 1 << rng.randrange(WIDE_BITS, 3 * WIDE_BITS))
                  for _ in range(count)]
    assert all(v.denominator >= _WIDE for v in values)
    calls = _count_gcd_calls(monkeypatch)
    total = sum_exact(values)
    assert calls[0] <= 2 * (len(values) - 1)
    _assert_reduced_sum(total, values)


def test_narrow_pairs_pay_one_gcd_per_run(monkeypatch):
    # 4096 unit fractions of up to 40 bits: a run holds 50 or more of them
    rng = random.Random(5)
    values = [Fraction(1, rng.randrange(1, 2**40)) for _ in range(4096)]
    calls = _count_gcd_calls(monkeypatch)
    total = sum_pairs((1, v.denominator) for v in values)
    assert calls[0] < len(values) // 8
    _assert_reduced_sum(total, values)


def test_fraction_slots_are_the_ones_filled():
    # sum_pairs builds its result by writing these two slots, with no gcd
    assert Fraction.__slots__ == ("_numerator", "_denominator")


@given(rationals)
def test_parse_format_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_parse_integer_forms():
    assert parse_rational("7") == 7
    assert format_rational(Fraction(7)) == "7"
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert format_rational(Fraction(9, 20)) == "9/20"


def test_rep_error_prints_under_default_digit_limit():
    with pytest.raises(ValueError, match=r"strictly increasing .* got \(10000000000.*0, 1\)$"):
        _with_digit_limit(4300, lambda: make_rep([10**5000, 1]))


def test_rep_iter_and_len():
    rep = EgyptianRep((2, 5, 11))
    assert list(rep) == [2, 5, 11]
    assert len(rep) == 3


def _with_digit_limit(limit, fn):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(saved)


def test_format_rational_long_ints_match_str():
    rng = random.Random(31)
    values = [rng.randrange(-(2**bits), 2**bits) for bits in range(12_900, 13_100, 7)]
    values += [2**13_000, 2**13_001 - 1, 10**3913, -(10**20_000) + 1, 7**40_000]
    values += [rng.randrange(2**bits) for bits in (50_000, 200_000)]
    expected = _with_digit_limit(0, lambda: [str(v) for v in values])
    got = _with_digit_limit(4300, lambda: [format_rational(Fraction(v)) for v in values])
    assert got == expected
    den = 3**20_000
    text = _with_digit_limit(4300, lambda: format_rational(Fraction(-1, den)))
    assert text == _with_digit_limit(0, lambda: f"-1/{den}")


def test_format_rational_short_path_matches_str():
    # parts below 2^_STR_BITS print by str() at once, and wider ones by the
    # decimal conversion: on both sides of that edge the text is str() of
    # the value and f"{p}/{q}" of its parts, for ints and Fractions whose
    # numerator or denominator has _STR_BITS - 1, _STR_BITS or _STR_BITS + 1
    # bits, with negative numerators and with den == 1
    bits = egy.rational._STR_BITS
    rng = random.Random(41)
    parts = [1, 2, 3]
    for width in (bits - 1, bits, bits + 1):
        parts += [1 << (width - 1), (1 << width) - 1, rng.getrandbits(width) | 1 << (width - 1) | 1]
    values = []
    for p in parts:
        values += [p, -p, Fraction(p), Fraction(-p)]
        values += [Fraction(s * p, q) for q in parts[1:] for s in (1, -1) if gcd(p, q) == 1]
    widths = {max(abs(v.numerator), v.denominator).bit_length() for v in values}
    assert {bits - 1, bits, bits + 1} <= widths
    for v in values:
        num, den = v.numerator, v.denominator
        want = _with_digit_limit(0, lambda: (str(v), str(num) if den == 1 else f"{num}/{den}"))
        got = _with_digit_limit(4300, lambda: format_rational(v))
        assert (got, got) == want, (num.bit_length(), den.bit_length())


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=13_000, max_value=400_000), st.integers(min_value=0, max_value=2**32),
       st.sampled_from(["random", "2^b - 1", "2^b", "10^d"]), st.booleans())
def test_format_long_ints_match_str(bits, seed, form, negative):
    # the decimal conversion against str(), for ints of 13k to 400k bits;
    # the denominator is drawn at up to the numerator's width, so the
    # two share a tree of leaves or the shorter one takes str()
    rng = random.Random(seed)
    if form == "random":
        n = rng.getrandbits(bits) | 1 << (bits - 1)
    elif form == "10^d":
        n = 10 ** (bits * 3 // 10)
    else:
        n = (1 << bits) - (form == "2^b - 1")
    value = Fraction(-n if negative else n, rng.getrandbits(rng.randrange(1, bits + 1)) | 1)
    expected = _with_digit_limit(0, lambda: str(value))  # "p" or "p/q", like format_rational
    assert _with_digit_limit(4300, lambda: format_rational(value)) == expected
    assert _with_digit_limit(4300, lambda: format_rational(Fraction(n))) == (
        _with_digit_limit(0, lambda: str(n)))
    # and parse_rational reads the text back, under the same default limit
    assert _with_digit_limit(4300, lambda: parse_rational(expected)) == value


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=13_000, max_value=400_000), st.integers(min_value=0, max_value=2**32),
       st.sampled_from(["any", "g > 1", "den divides c", "den 1"]), st.booleans())
def test_format_rational_scaled_matches_format_rational(bits, seed, shape, negative):
    # value and value * c from one conversion, against format_rational of
    # each under the default digit limit: c shares a factor g > 1 with the
    # denominator, is a multiple of it (value * c prints as an integer),
    # or is drawn alone; value is an integer or has a denominator of up to
    # the numerator's width
    rng = random.Random(seed)
    n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    small = rng.randrange(2, 10**7)
    den = 1 if shape == "den 1" else rng.getrandbits(rng.randrange(1, bits + 1)) | 1
    if shape == "g > 1":
        den <<= rng.randrange(1, 40)
        small <<= rng.randrange(1, 60)
    value = Fraction(-n if negative else n, den)
    c = value.denominator * small if shape == "den divides c" else small
    got = _with_digit_limit(4300, lambda: format_rational_scaled(value, c))
    assert got == _with_digit_limit(4300, lambda: (format_rational(value), format_rational(value * c)))
    if shape == "g > 1":
        assert gcd(value.denominator, c) > 1
    if shape == "den divides c":
        assert "/" not in got[1]


def test_certificate_serializes_under_default_digit_limit():
    # the certified measure at i = 1000 runs to tens of thousands of digits
    report = lemma1_certificate(1000, "paper")
    out = _with_digit_limit(4300, report.to_dict)
    assert len(out["certified_measure"]) > 4300
    assert _with_digit_limit(4300, lambda: parse_rational(out["certified_measure"])) == (
        report.certified_measure)

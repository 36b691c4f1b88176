import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import oracle_lemma1
from egy import lemma1, measure
from egy.lemma1 import (
    CertificateError,
    lemma1_certificate,
    nongreedy_two_term_measure,
    xk,
)
from egy.partition import Cell
from egy.rational import format_rational
from egy.search import NodeBudgetExceeded, best_underapprox
from oracle_bruteforce import brute_two_term_nongreedy


def test_xk_at_zero():
    for i in (2, 10, 1000):
        assert xk(i, 0) == i * (i + 1)


def test_xk_rewrite_identity():
    for i, k in ((1000, 7), (17, 3), (2048, 100)):
        lhs = Fraction(1, i + 1) + Fraction(1, i * (i + 1) // 2 + k)
        rhs = Fraction(1, i) + 1 / xk(i, k)
        assert lhs == rhs


def test_xk_explicit_value():
    assert xk(1000, 1) == Fraction(1001000 * 1001002, 1000998)


def test_xk_range_errors():
    with pytest.raises(ValueError):
        xk(1, 0)
    with pytest.raises(ValueError):
        xk(10, -1)
    with pytest.raises(ValueError):
        xk(10, 12)  # floor(110/10) = 11 is the max


@pytest.mark.parametrize("bad", [20.5, 20.0, True, "20", Fraction(20)])
def test_slice_indices_are_ints(bad):
    # lemma1_certificate(20.5) raised AttributeError and
    # nongreedy_two_term_measure(20.0) TypeError; a bool is no index either
    shown = repr(bad)
    for call, message in ((lambda: lemma1_certificate(bad), "lemma1_certificate() needs i >= 2"),
                          (lambda: lemma1_certificate(bad, "exact"), "lemma1_certificate() needs i >= 2"),
                          (lambda: nongreedy_two_term_measure(bad), "nongreedy_two_term_measure() needs i >= 2"),
                          (lambda: xk(bad, 0), "xk() needs i >= 2"),
                          (lambda: xk(20, bad), "xk() needs 0 <= k <= 42")):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{message}, got {shown}"


def test_xk_spacing_exceeds_one():
    rng = random.Random(3)
    for _ in range(50):
        i = rng.randrange(2, 300)
        kmax = i * (i + 1) // 10
        k = rng.randrange(0, kmax)
        assert xk(i, k + 1) - xk(i, k) > 1


def test_paper_mode_requires_large_i():
    with pytest.raises(ValueError):
        lemma1_certificate(999, "paper")
    with pytest.raises(ValueError):
        lemma1_certificate(1000, "nonsense")


def test_paper_certificate_at_1000():
    report = lemma1_certificate(1000, "paper")
    assert report.passed
    assert report.selected_count * 200 >= 1000 * 1000
    assert report.certified_measure * 1000 * 999 * 1000 > 1
    assert 0 <= report.certified_measure <= report.interval_length


def test_direct_dominates_paper():
    paper = lemma1_certificate(1000, "paper")
    direct = lemma1_certificate(1000, "direct")
    assert paper.certified_measure <= direct.certified_measure


def test_exact_dominates_direct_small_i():
    for i in (40, 120):
        direct = lemma1_certificate(i, "direct")
        exact = lemma1_certificate(i, "exact")
        assert direct.certified_measure <= exact.certified_measure
        assert exact.certified_measure <= exact.interval_length


def test_exact_measure_against_point_classification():
    # classify random points of (1/i, 1/(i-1)] with the solver and compare
    # the hit fraction against the exact measure ratio
    i = 10
    measure = nongreedy_two_term_measure(i)
    ratio = measure * (i - 1) * i
    rng = random.Random(99)
    width = Fraction(1, i - 1) - Fraction(1, i)
    hits = 0
    trials = 2000
    for _ in range(trials):
        x = Fraction(1, i) + width * Fraction(rng.randrange(1, 2**32 + 1), 2**32)
        value, _ = best_underapprox(x, 2)
        g1 = Fraction(1, i)
        g2gap = x - g1
        m2 = g2gap.denominator // g2gap.numerator + 1
        greedy = g1 + Fraction(1, m2)
        if value > greedy:
            hits += 1
    observed = Fraction(hits, trials)
    assert abs(observed - ratio) < Fraction(1, 30)  # ~3 sigma at n=2000


def test_membership_soundness_sampled():
    # midpoints of right-part intervals must have a best two-term value at
    # least the competitor sum, which strictly beats greedy
    i = 1000
    big = i * (i + 1)
    rng = random.Random(5)
    for _ in range(100):
        k = rng.randrange(1, big // 10)
        x_val = xk(i, k)
        if x_val.denominator == 1:
            continue
        floor_x = x_val.numerator // x_val.denominator
        left = Fraction(1, i) + 1 / x_val
        right = Fraction(1, i) + Fraction(1, floor_x)
        mid = (left + right) / 2
        competitor = Fraction(1, i + 1) + Fraction(1, big // 2 + k)
        value, _ = best_underapprox(mid, 2)
        assert value >= competitor
        gap = mid - Fraction(1, i)
        m2 = gap.denominator // gap.numerator + 1
        greedy = Fraction(1, i) + Fraction(1, m2)
        assert value > greedy


def test_nongreedy_measure_bounds():
    for i in (2, 3, 10, 50):
        m = nongreedy_two_term_measure(i)
        assert 0 <= m <= Fraction(1, (i - 1) * i)
    with pytest.raises(ValueError):
        nongreedy_two_term_measure(1)


def test_nongreedy_against_independent_scan():
    # second oracle: dense grid classification at small i
    i = 6
    measure = nongreedy_two_term_measure(i)
    width = Fraction(1, i - 1) - Fraction(1, i)
    grid = 4000
    hits = sum(
        brute_two_term_nongreedy(i, Fraction(1, i) + width * Fraction(j, grid))
        for j in range(1, grid + 1)
    )
    # grid estimate converges at rate ~ #cells/grid
    assert abs(Fraction(hits, grid) - measure / width) < Fraction(1, 40)


def test_report_dict_round_trip():
    report = lemma1_certificate(50, "exact")
    d = report.to_dict()
    assert d["i"] == 50
    assert d["mode"] == "exact"
    assert d["pass"] == report.passed
    assert set(d) == {
        "i", "mode", "selected_count", "certified_measure",
        "interval_length", "ratio", "pass",
    }


# -- the integer certificates against the Fraction oracle ------------------
# Fraction equality compares numerator and denominator as stored, so a
# result left unreduced by the integer code would fail these comparisons.


@pytest.mark.parametrize("i", [1000, 1001, 1234])
def test_paper_mode_matches_fraction_oracle(i):
    report = lemma1_certificate(i, "paper")
    total, count = oracle_lemma1.paper_certificate(i)
    assert report.certified_measure == total
    assert report.selected_count == count


def _paper_outcome(run, i):
    try:
        return "ok", run(i)
    except CertificateError as exc:
        return "error", str(exc)


def test_paper_checks_match_oracle_below_1000():
    # below i = 1000 the |L| and x_k < 6i^2/5 checks fail for some i, so
    # both the witnesses in the messages and the passing terms are compared
    def integer_lengths(i):
        return [Fraction(num, den) for num, den in lemma1._paper_terms(i)]

    outcomes = set()
    for i in list(range(2, 60)) + list(range(60, 400, 13)):
        expected = _paper_outcome(oracle_lemma1.paper_lengths, i)
        assert _paper_outcome(integer_lengths, i) == expected, i
        outcomes.add(expected[1].split(" ")[0] if expected[0] == "error" else "ok")
        # streamed into the sum, the checks raise at the same term
        assert _paper_outcome(lemma1._paper_certificate, i) == (
            _paper_outcome(oracle_lemma1.paper_certificate, i)), i
    assert outcomes == {"ok", "|L|", "x_k"}


def test_exact_and_nongreedy_match_fraction_oracle():
    for i in list(range(2, 61)) + [77, 101, 150]:
        expected = oracle_lemma1.nongreedy_measure(i)
        assert nongreedy_two_term_measure(i) == expected, i
        report = lemma1_certificate(i, "exact")
        assert report.certified_measure == expected, i


def test_direct_mode_matches_fraction_oracle():
    for i in list(range(2, 40)) + list(range(40, 301, 17)):
        report = lemma1_certificate(i, "direct")
        total, count = oracle_lemma1.direct_certificate(i)
        assert report.certified_measure == total, i
        assert report.selected_count == count


@pytest.mark.parametrize("lower, upper, level, i_max", [
    (Fraction(1, 3), Fraction(23, 60), 2, 26),
    (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 40), 5, 48),
])
def test_decay_exact_slices_match_fraction_oracle(monkeypatch, lower, upper, level, i_max):
    cell = Cell(level=level, lower=lower, upper=upper, best_rep=None)
    report = measure.cell_decay_bound(cell, i_max, slice_bound="exact")
    monkeypatch.setattr(measure, "exact_measure", lambda slices, node_budget, what: (
        oracle_lemma1.fraction_sum(oracle_lemma1.nongreedy_measure(i) for i in slices), None))
    expected = measure.cell_decay_bound(cell, i_max, slice_bound="exact")
    assert report.to_dict() == expected.to_dict()
    assert report.enclosure == expected.enclosure
    assert report.note is None  # i_max > i0, so the slices were summed


def test_report_dict_matches_field_by_field_format():
    # to_dict prints the measure and the ratio, the measure times (i-1) i,
    # from one decimal conversion: the bytes are those of format_rational
    # on each field, under the default int-to-str digit limit
    cases = [(i, "paper") for i in (1000, 1499, 2048)]
    cases += [(i, "direct") for i in range(2, 401, 37)]
    cases += [(i, "exact") for i in range(2, 151, 16)]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for i, mode in cases:
            report = lemma1_certificate(i, mode)
            assert report.to_dict() == {
                "i": i,
                "mode": mode,
                "selected_count": report.selected_count,
                "certified_measure": format_rational(report.certified_measure),
                "interval_length": format_rational(report.interval_length),
                "ratio": format_rational(report.ratio),
                "pass": report.passed,
            }, (i, mode)
    finally:
        sys.set_int_max_str_digits(saved)


# -- memory: O(i) state plus the result ---------------------------------


@pytest.mark.parametrize("i, mode, limit_mb", [
    (150, "exact", 1.0), (400, "direct", 1.0), (2048, "paper", 1.5),
])
def test_certificate_peak_memory(i, mode, limit_mb):
    # a list of every competitor or term took 5-8 MB at these i
    lemma1_certificate(20, mode if mode != "paper" else "direct")  # warm imports
    tracemalloc.start()
    try:
        report = lemma1_certificate(i, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < limit_mb * 1e6, peak


def test_exact_measure_counts_cells_over_slices():
    # the measure and cell count of a slice range are those of its slices
    slices = range(5, 31)
    total, cells = lemma1.exact_measure(slices, None, "slices")
    assert total == oracle_lemma1.fraction_sum(oracle_lemma1.nongreedy_measure(i) for i in slices)
    assert cells == sum(len(oracle_lemma1.min_competitors(i)) for i in slices)
    assert lemma1.exact_measure(range(2, 2), None, "no slice") == (0, 0)


# -- the node budget: one unit per l, k or competitor pair ----------------


def _contract(run, units):
    # U units are exactly enough: budget U gives the unlimited result, U - 1 raises
    expected = run(None)
    assert run(units) == expected
    with pytest.raises(NodeBudgetExceeded, match=f"needs at least {units} more units, {units - 1} left"):
        run(units - 1)


def test_certificate_budget_contract():
    big = 1000 * 1001
    paper_units = (3 * big) // 200 - -(-big // 100) + 1  # one per l
    _contract(lambda nb: lemma1_certificate(1000, "paper", nb), paper_units)
    for i in (2, 7, 30):
        pairs = oracle_lemma1.pair_count(i)
        _contract(lambda nb: lemma1_certificate(i, "direct", nb), i * (i + 1) // 10 + 1)
        _contract(lambda nb: lemma1_certificate(i, "exact", nb), pairs)
        _contract(lambda nb: nongreedy_two_term_measure(i, nb), pairs)


def test_decay_budget_counts_every_slice():
    cell = Cell(level=2, lower=Fraction(1, 3), upper=Fraction(23, 60), best_rep=None)
    report = measure.cell_decay_bound(cell, 26, "exact")
    units = sum(oracle_lemma1.pair_count(i) for i in range(report.i0 + 1, 27))
    _contract(lambda nb: measure.cell_decay_bound(cell, 26, "exact", nb), units)
    # the lemma bound enumerates nothing, so it spends nothing
    assert measure.cell_decay_bound(cell, 26, "lemma", 1).note is not None


def test_decay_counts_each_slice_once(monkeypatch):
    counted = []

    def spy(i, limit):
        counted.append(i)
        return count(i, limit)

    count = lemma1._kernels.competitor_pairs
    monkeypatch.setattr(lemma1._kernels, "competitor_pairs", spy)
    cell = Cell(level=2, lower=Fraction(1, 3), upper=Fraction(23, 60), best_rep=None)
    report = measure.cell_decay_bound(cell, 26, "exact")
    assert counted == list(range(report.i0 + 1, 27))


def test_budget_fails_fast_on_huge_slices():
    # the counts stop once they pass the budget: no O(i^2) work at i = 10^5
    t0 = time.time()
    for run in (lambda: nongreedy_two_term_measure(100_000),
                lambda: lemma1_certificate(100_000, "exact"),
                lambda: lemma1_certificate(100_000, "direct"),
                lambda: lemma1_certificate(100_000, "paper")):
        with pytest.raises(NodeBudgetExceeded):
            run()
    assert time.time() - t0 < 5

from collections import Counter
from fractions import Fraction

import pytest

import oracle_chain
from conftest import random_rational
from egy import lemma1, measure, search
from egy.measure import (
    MeasureEnclosure,
    cell_decay_bound,
    chain_check,
    sample_chain_density,
    wilson_interval,
)
from egy.partition import Cell, cell_of
from egy.rational import harmonic
from egy.search import ResourceLimitError


def test_chain_fixture_unit_target():
    report = chain_check(Fraction(1), 0, 4)
    assert report.verdict
    assert list(report.diffs) == [
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 43),
    ]
    assert tuple(report.base_rep) == ()


def test_chain_fixture_counterexample():
    report = chain_check(Fraction(11, 24), 1, 2)
    assert not report.verdict
    assert report.failure_level == 2
    assert list(report.best_values) == [Fraction(1, 3), Fraction(9, 20)]
    assert list(report.diffs) == [Fraction(7, 60)]


def test_chain_fixture_one_fifth():
    report = chain_check(Fraction(1, 5), 0, 3)
    assert report.verdict


def test_chain_base_representation():
    # x = 11/24 chains from level 2 upward only if best_2 = 9/20 has a
    # 2-term representation compatible with the next difference
    report = chain_check(Fraction(11, 24), 2, 3)
    assert report.best_values[0] == Fraction(9, 20)
    if report.verdict:
        assert report.base_rep is not None
        assert report.base_rep.value() == Fraction(9, 20)


def test_chain_base_search_spends_the_node_budget(monkeypatch):
    # every node of the base representation search spends from one budget,
    # which starts at the chain's node_budget
    budgets = []
    representation = search._representation

    def recorded(*args):
        budgets.append((args[-1], args[-1].left))
        return representation(*args)

    monkeypatch.setattr(search, "_representation", recorded)
    report = chain_check(Fraction(11, 24), 2, 4, node_budget=12_345)
    assert report.verdict and tuple(report.base_rep) == (4, 5)
    assert budgets[0][1] == 12_345
    assert len({id(budget) for budget, _ in budgets}) == 1


def test_chain_preconditions():
    with pytest.raises(ValueError):
        chain_check(Fraction(1, 2), 2, 2)
    with pytest.raises(ValueError):
        chain_check(Fraction(0), 0, 2)
    with pytest.raises(ValueError):
        chain_check(Fraction(3, 2), 1, 3)  # above harmonic(1)


def test_chain_monotone(rng):
    # pass at (n0, t) implies pass at every shorter range
    for _ in range(10):
        x = random_rational(rng, max_den=64, hi=harmonic(1))
        full = chain_check(x, 1, 4)
        for t in (2, 3):
            shorter = chain_check(x, 1, t)
            if full.verdict:
                assert shorter.verdict


def _outcome(check, *args):
    try:
        return check(*args)
    except ResourceLimitError as exc:
        return type(exc), str(exc)


def test_chain_matches_two_variable_oracle(rng):
    # the failure level alone carries the verdict: diff against the loop
    # that kept a verdict flag and the last accepted denominator beside it
    cases = [(x, n0, t, stop, None) for x, n0, t in [(Fraction(5, 11), 1, 4), (Fraction(11, 24), 1, 3),
                                                    (Fraction(13, 16), 2, 4)] for stop in (False, True)]
    for _ in range(600):
        n0 = rng.choice((0, 1, 2))
        x = random_rational(rng, max_den=120, hi=harmonic(n0) if n0 else Fraction(2))
        cases.append((x, n0, rng.randrange(n0 + 1, n0 + 3), rng.choice((False, True)),
                      rng.choice((None, 60, 400, 3000))))

    def fields(x, n0, t, stop, budget):
        r = chain_check(x, n0, t, stop_on_failure=stop, node_budget=budget)
        return r.best_values, r.diffs, r.verdict, r.failure_level, r.base_rep

    seen = Counter()
    for case in cases:
        want = _outcome(oracle_chain.chain_check, *case)
        assert _outcome(fields, *case) == want, case
        if len(want) == 2:
            seen["raised"] += 1
        elif want[2]:
            seen["pass"] += 1
        else:
            seen["fail"] += 1
            # stop_on_failure=False goes on computing diffs past the failure
            seen["diffs past the failure"] += len(want[1]) > want[3] - case[1]
    assert all(seen[k] for k in ("raised", "pass", "fail", "diffs past the failure")), seen


@pytest.mark.parametrize("denoms, failure", [((2, 3, 3, 100), 3), ((2, 5, 4, 100), 3), ((2, 3, 7, 43), None)])
def test_chain_unit_diffs_must_strictly_increase(monkeypatch, denoms, failure):
    # unit differences whose denominators do not increase turn up in no
    # small search, so the best values the chain reads are scripted here
    values = [sum((Fraction(1, d) for d in denoms[:k]), Fraction(0)) for k in range(len(denoms) + 1)]

    def scripted(x, level, node_budget=None):
        return values[level], None

    def scripted_pair(xn, xd, level, node_budget):  # chain_check reads the search core
        return values[level].numerator, values[level].denominator, None

    monkeypatch.setattr(measure, "_best_pair", scripted_pair)
    monkeypatch.setattr(oracle_chain, "best_underapprox", scripted)
    for stop in (False, True):
        r = chain_check(Fraction(2), 0, len(denoms), stop_on_failure=stop)
        assert (r.verdict, r.failure_level) == (failure is None, failure)
        assert (r.best_values, r.diffs, r.verdict, r.failure_level, r.base_rep) == \
            oracle_chain.chain_check(Fraction(2), 0, len(denoms), stop)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert 0 <= lo < Fraction(1, 2) < hi <= 1
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0 and hi0 < Fraction(1, 10)
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 == 1 and lo1 > Fraction(9, 10)
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    # z = 0 would give the point (1/2, 1/2), and z = -1 the bounds swapped
    for z in (Fraction(0), Fraction(-1), -3):
        with pytest.raises(ValueError, match="needs z > 0"):
            wilson_interval(5, 10, z)


def test_sample_determinism():
    a = sample_chain_density(1, 2, 50, 42, 32)
    b = sample_chain_density(1, 2, 50, 42, 32)
    assert a == b
    assert 0 <= a.fraction <= 1
    assert a.wilson_low <= a.fraction <= a.wilson_high
    assert a.passes + a.fails + a.undecided == 50


def test_sample_counts_tally_the_rows():
    # a budget small enough that some samples are undecided
    report = sample_chain_density(2, 4, 60, 7, 32, node_budget=3000)
    verdicts = Counter(line.split(",")[1] for line in report.to_csv().splitlines()[1:])
    assert (report.passes, report.fails, report.undecided) == (
        verdicts["pass"], verdicts["fail"], verdicts["undecided"])
    assert report.passes + report.fails + report.undecided == report.count == 60
    assert report.passes and report.fails and report.undecided


def test_sample_preconditions():
    with pytest.raises(ValueError):
        sample_chain_density(1, 1, 10, 0, 32)
    with pytest.raises(ValueError):
        sample_chain_density(0, 2, 10, 0, 32)
    with pytest.raises(ValueError):
        sample_chain_density(1, 2, 0, 0, 32)
    with pytest.raises(ValueError):
        sample_chain_density(1, 2, 10, 0, 8)


@pytest.mark.parametrize("count, bits, shown", [
    (2.5, 32, "count >= 1, got 2.5"),
    ("3", 32, "count >= 1, got '3'"),
    (True, 32, "count >= 1, got True"),
    (3, 32.0, "bits >= 16, got 32.0"),
    (3, True, "bits >= 16, got True"),
])
def test_sample_counts_are_ints(count, bits, shown):
    # as cells_in_window's max_cells: an int that is not a bool
    with pytest.raises(ValueError, match=f"needs {shown}$"):
        sample_chain_density(1, 2, count, 0, bits)


def test_sample_csv_dump():
    report = sample_chain_density(1, 2, 20, 3, 32)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "x,verdict,failure_level"
    assert len(lines) == 21


def test_enclosure_validation():
    with pytest.raises(ValueError):
        MeasureEnclosure(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        MeasureEnclosure(Fraction(-1, 2), Fraction(1, 3))


def test_decay_bound_rejects_unbounded():
    cell = Cell(level=2, lower=harmonic(2), upper=None, best_rep=None)
    with pytest.raises(ValueError):
        cell_decay_bound(cell, 100)


@pytest.mark.parametrize("bad", [200.5, 200.0, True, "200", Fraction(200)])
def test_decay_bound_i_max_is_an_int(bad):
    # 200.5 made a report with "i_max": 200.5, and True ran as i_max = 1
    cell = Cell(2, Fraction(1, 3), Fraction(23, 60), None)
    for slice_bound in ("lemma", "exact"):
        with pytest.raises(ValueError) as info:
            cell_decay_bound(cell, bad, slice_bound)
        assert str(info.value) == f"cell_decay_bound() needs i_max >= 1, got {bad!r}"


def test_decay_bound_tail_dominated():
    cell = Cell(level=31, lower=Fraction(1, 3), upper=Fraction(1, 3) + Fraction(1, 1000), best_rep=None)
    report = cell_decay_bound(cell, 100)  # i_max <= i0 = 1001
    assert report.note is not None
    assert report.enclosure.upper == Fraction(1, 1000)
    assert report.ratio == 1


def test_decay_bound_upper_never_exceeds_length():
    cell = Cell(level=5, lower=Fraction(1, 2), upper=Fraction(1, 2) + Fraction(1, 40), best_rep=None)
    for imax in (50, 500, 5000):
        report = cell_decay_bound(cell, imax)
        assert 0 <= report.enclosure.upper <= Fraction(1, 40)


def test_decay_exact_strategy_beats_lemma_on_small_range():
    cell = Cell(level=5, lower=Fraction(1, 2), upper=Fraction(1, 2) + Fraction(1, 40), best_rep=None)
    exact = cell_decay_bound(cell, 60, slice_bound="exact")
    lemma = cell_decay_bound(cell, 60, slice_bound="lemma")
    # the exact per-slice certificates can only subtract more
    assert exact.enclosure.upper <= lemma.enclosure.upper
    with pytest.raises(ValueError):
        cell_decay_bound(cell, 60, slice_bound="bogus")


def test_decay_bound_rejects_imax_below_one():
    cell = Cell(level=2, lower=Fraction(1, 3), upper=Fraction(1, 2), best_rep=None)
    for imax in (0, -5):
        with pytest.raises(ValueError, match="i_max >= 1"):
            cell_decay_bound(cell, imax)
    assert cell_decay_bound(cell, 1).note is not None  # vacuous, but valid


def test_decay_real_cell():
    cell = cell_of(Fraction(11, 24), 2)
    report = cell_decay_bound(cell, 5000)
    assert report.enclosure.upper <= cell.upper - cell.lower
    assert report.i0 >= 1


def test_decay_report_dict():
    cell = Cell(level=31, lower=Fraction(1, 3), upper=Fraction(1, 3) + Fraction(1, 1000), best_rep=None)
    d = cell_decay_bound(cell, 10**6).to_dict()
    assert d["i0"] == 1001
    assert d["slice_bound"] == "lemma"
    assert set(d) == {"cell", "level", "i0", "i_max", "slice_bound", "enclosure", "ratio", "note"}


def _decay_oracle(cell, i_max, slice_bound):
    """The paper's decomposition of the cell, slice by slice: the exceptional
    part r - q - 1/i0, each slice's |I_i| less its own certificate, and the
    tail 1/i_max; the whole length when i_max <= i0.  Also the report's i0
    and note."""
    length = cell.upper - cell.lower
    i0 = 1
    while Fraction(1, i0) >= length:
        i0 += 1
    if i_max <= i0:
        return i0, length, "i_max <= i0: tail dominates, the bound is vacuous"
    note = None if slice_bound == "exact" or i_max >= 1000 else \
        "no slice reaches i >= 1000; lemma bound certifies nothing"
    upper = length - Fraction(1, i0)
    for i in range(i0 + 1, i_max + 1):
        width = Fraction(1, i - 1) - Fraction(1, i)
        if slice_bound == "exact":
            certified, _ = lemma1.exact_measure(range(i, i + 1), None, f"slice {i}")
        else:
            certified = width / 1000 if i >= 1000 else Fraction(0)
        upper += width - certified
    return i0, upper + Fraction(1, i_max), note


@pytest.mark.parametrize("length, level, i_max, slice_bound", [
    # i0 < 999
    (Fraction(1, 40), 5, 41, "lemma"),
    (Fraction(1, 40), 5, 60, "lemma"),
    (Fraction(1, 40), 5, 999, "lemma"),
    (Fraction(1, 40), 5, 1000, "lemma"),
    (Fraction(1, 40), 5, 1400, "lemma"),
    (Fraction(1, 997), 30, 1003, "lemma"),  # i0 = 998
    (Fraction(1, 40), 5, 30, "exact"),
    (Fraction(1, 40), 5, 48, "exact"),
    (Fraction(3, 61), 4, 28, "exact"),  # i0 = 21
    # i0 >= 999
    (Fraction(2, 1997), 31, 999, "lemma"),  # i0 = 999
    (Fraction(2, 1997), 31, 1500, "lemma"),
    (Fraction(1, 1000), 31, 1001, "lemma"),  # i0 = 1001
    (Fraction(1, 1000), 31, 1002, "lemma"),
    (Fraction(1, 1000), 31, 2500, "lemma"),
    # exact slices at i >= 1000 take over a minute each, so only i_max <= i0
    (Fraction(1, 1000), 31, 1001, "exact"),
    (Fraction(1, 1000), 31, 800, "exact"),
])
def test_decay_bound_matches_slice_decomposition(length, level, i_max, slice_bound):
    cell = Cell(level=level, lower=Fraction(1, 3), upper=Fraction(1, 3) + length, best_rep=None)
    i0, upper, note = _decay_oracle(cell, i_max, slice_bound)
    report = cell_decay_bound(cell, i_max, slice_bound)
    assert (report.i0, report.note) == (i0, note)
    assert report.enclosure == MeasureEnclosure(Fraction(0), upper)
    assert report.ratio == upper / length

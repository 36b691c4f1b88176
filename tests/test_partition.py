import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import oracle_partition
import oracle_regular
from conftest import random_rational
from egy import partition, search
from egy.partition import (
    Cell,
    _regular_descend,
    cell_of,
    cells_in_window,
    cells_to_csv,
    next_regular_above,
    refinement_check,
)
from egy.rational import format_rational, harmonic
from egy.search import (
    DEFAULT_NODE_BUDGET,
    NodeBudgetExceeded,
    ResourceLimitError,
    best_underapprox,
    next_point_above,
)


def test_cell_validation():
    with pytest.raises(ValueError):
        Cell(level=1, lower=Fraction(1, 2), upper=Fraction(1, 2), best_rep=None)
    with pytest.raises(ValueError):  # longer than 1/(n(n+1))
        Cell(level=2, lower=Fraction(0), upper=Fraction(1, 2), best_rep=None)
    with pytest.raises(ValueError):
        Cell(level=0, lower=Fraction(1, 2), upper=Fraction(2, 3), best_rep=None)
    unbounded = Cell(level=3, lower=harmonic(3), upper=None, best_rep=None)
    assert unbounded.length() is None
    assert unbounded.contains(Fraction(100))


@pytest.mark.parametrize("bad", [2.5, True, Fraction(3), "3"])
def test_cell_level_is_an_int(bad):
    # 2.5, True and Fraction(3) made cells (cell_decay_bound then printed
    # "level": 2.5) and "3" raised TypeError; each is now refused by its
    # repr, and an int level below 1 keeps its message
    with pytest.raises(ValueError) as info:
        Cell(bad, Fraction(1, 3), Fraction(7, 20), None)
    assert str(info.value) == f"cell level must be >= 1, got {bad!r}"
    with pytest.raises(ValueError) as info:
        Cell(0, Fraction(1, 3), Fraction(7, 20), None)
    assert str(info.value) == "cell level must be >= 1, got 0"
    assert Cell(3, Fraction(1, 3), Fraction(7, 20), None).level == 3


def test_cell_of_examples():
    c = cell_of(Fraction(1), 1)
    assert (c.lower, c.upper) == (Fraction(1, 2), Fraction(1))
    c = cell_of(Fraction(2), 1)
    assert (c.lower, c.upper) == (Fraction(1), None)
    c = cell_of(Fraction(11, 24), 2)
    assert c.lower == Fraction(9, 20)
    assert c.contains(Fraction(11, 24))
    assert tuple(c.best_rep) == (4, 5)


def test_cell_of_rejects_bad_input():
    with pytest.raises(ValueError):
        cell_of(Fraction(0), 1)
    with pytest.raises(ValueError):
        cell_of(Fraction(1, 2), 0)


def test_cells_in_window_examples():
    # the cell (1/2, 1] is clipped at the window's left edge 3/4
    cells, uncovered = cells_in_window(Fraction(3, 4), Fraction(1), 1, 10)
    assert [(c.lower, c.upper) for c in cells] == [(Fraction(3, 4), Fraction(1))]
    assert uncovered == 0

    cells, uncovered = cells_in_window(Fraction(1, 3), Fraction(1, 2), 1, 10)
    assert [(c.lower, c.upper) for c in cells] == [(Fraction(1, 3), Fraction(1, 2))]
    assert uncovered == 0

    cells, uncovered = cells_in_window(Fraction(1, 3), Fraction(1, 2), 1, 0)
    assert cells == []
    assert uncovered == Fraction(1, 6)


def test_cells_in_window_rejects_bad_window():
    with pytest.raises(ValueError):
        cells_in_window(Fraction(1, 2), Fraction(1, 3), 1, 10)
    with pytest.raises(ValueError):
        cells_in_window(Fraction(0), Fraction(1, 2), 1, 10)
    with pytest.raises(ValueError):
        cells_in_window(Fraction(1, 3), Fraction(2), 1, 10)


def test_cells_tile_exactly(rng):
    for n in (1, 2, 3):
        for _ in range(4):
            b = random_rational(rng, max_den=40, hi=harmonic(n))
            a = b - Fraction(1, rng.randrange(20, 200))
            if a <= 0:
                continue
            cells, uncovered = cells_in_window(a, b, n, max_cells=30)
            total = sum((c.upper - c.lower for c in cells), Fraction(0))
            assert uncovered + total == b - a
            # consecutive: each upper equals the previous lower
            for left, right in zip(cells[1:], cells):
                assert left.upper == right.lower
            for c in cells:
                assert c.upper - c.lower <= Fraction(1, n * (n + 1))


def _walk_from_cell_of(a, b, n, max_cells):
    """The window walk spelled out with cell_of, kept as the oracle."""
    cells = []
    cursor = b
    while len(cells) < max_cells and cursor > a:
        cell = cell_of(cursor, n)
        cells.append((max(cell.lower, a), cursor, cell.best_rep))
        cursor = cell.lower
    return cells, (cursor - a if cursor > a else 0)


def test_cells_in_window_matches_cell_of_walk(rng):
    # The budget caps each window search of the walk (these windows' searches
    # need at most 3307 units) but not the right endpoints, which the walk does
    # not search for (next_point_above needs up to 6380 units here).
    for n in (1, 2, 3, 4):
        for _ in range(6):
            b = random_rational(rng, max_den=40, hi=harmonic(n))
            a = b - Fraction(1, rng.randrange(30, 300))
            if a <= 0:
                a = b / 2
            cells, uncovered = cells_in_window(a, b, n, max_cells=6, node_budget=5000)
            got = [(c.lower, c.upper, c.best_rep) for c in cells]
            assert (got, uncovered) == _walk_from_cell_of(a, b, n, 6), (a, b, n)


def test_cells_in_window_searches_no_right_endpoint(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cells_in_window searched for a right endpoint")

    monkeypatch.setattr("egy.partition.next_point_above", refuse)
    cells, uncovered = cells_in_window(Fraction(1, 3), Fraction(1, 2), 2, 10)
    assert len(cells) == 10 and cells[0].upper == Fraction(1, 2)
    assert uncovered == cells[-1].lower - Fraction(1, 3) > 0


def _outcome(call, *args, **kwargs):
    """The repr of a result (so endpoint types count too), or the type and
    message of the exception raised."""
    try:
        return repr(call(*args, **kwargs))
    except (ValueError, ResourceLimitError) as exc:
        return type(exc), str(exc)


def _window_cases(rng):
    """(a, b, n, max_cells, node_budget) at n = 2..4: seeded windows, and
    budgets that raise, a on a best value, b = H_n, int endpoints and
    windows the walk refuses."""
    cases = []
    for n in (2, 3, 4):
        hn = harmonic(n)
        for _ in range(40):
            b = random_rational(rng, max_den=60, lo=Fraction(1, 5), hi=hn)
            a = b - Fraction(1, rng.randrange(20, 300))
            if a <= 0:
                a = b / 2
            cases.append((a, b, n, rng.randrange(1, 6), rng.choice((30, 300, 3000, 20_000))))
        # a on a best value: the walk lands on it and leaves nothing uncovered
        b = random_rational(rng, max_den=60, lo=Fraction(1, 3), hi=hn)
        a = best_underapprox(best_underapprox(b, n)[0], n)[0]
        cases.append((a, b, n, 10, 20_000))
        cases += [(hn - Fraction(1, 50), hn, n, 3, 20_000),  # b = H_n
                  (hn - Fraction(1, 50), hn, n, 3, 40),      # ... on a budget that raises
                  (Fraction(9, 10), 1, n, 4, 20_000),        # int b
                  (1, Fraction(21, 20), n, 4, 20_000),       # int a
                  (hn, hn + 1, n, 4, None),                  # refused: b > H_n
                  (Fraction(1, 2), Fraction(1, 2), n, 4, None),
                  (0, Fraction(1, 2), n, 4, None),
                  (Fraction(1, 3), Fraction(1, 2), n, -1, None)]
    cases.append((1, 2, 4, 3, 20_000))  # both ends int, inside (0, H_4]
    return cases


def test_cells_in_window_matches_fraction_oracle(rng, budgets):
    # node_budget caps each window search, and one search lists up to
    # SEARCH_CELLS cells, so a window's budget outcome is the search's own:
    # with U, the most units one of its searches spends, the walk finishes
    # and prints the oracle's reprs (the oracle runs without a budget, as
    # its budget caps each cell's search); with U - 1 it raises.  Refused
    # windows raise the oracle's error, message and all.
    seen = Counter()
    for a, b, n, max_cells, budget in _window_cases(rng):
        want = _outcome(oracle_partition.cells_in_window, a, b, n, max_cells)
        if type(want) is tuple:
            assert want[0] is ValueError
            got = _outcome(cells_in_window, a, b, n, max_cells=max_cells, node_budget=budget)
            assert got == want, (a, b, n, max_cells, budget)
            seen["ValueError"] += 1
            continue
        budgets.clear()
        assert _outcome(cells_in_window, a, b, n, max_cells=max_cells) == want, (a, b, n, max_cells)
        units = max(DEFAULT_NODE_BUDGET - made.left for made in budgets)  # U
        assert _outcome(cells_in_window, a, b, n, max_cells=max_cells, node_budget=units) == want
        with pytest.raises(NodeBudgetExceeded):
            cells_in_window(a, b, n, max_cells=max_cells, node_budget=units - 1)
        if budget is not None and budget < units:
            with pytest.raises(NodeBudgetExceeded):
                cells_in_window(a, b, n, max_cells=max_cells, node_budget=budget)
            seen["NodeBudgetExceeded"] += 1
        elif budget is not None:
            got = _outcome(cells_in_window, a, b, n, max_cells=max_cells, node_budget=budget)
            assert got == want, (a, b, n, max_cells, budget)
        seen["uncovered" if not want.endswith(", Fraction(0, 1))") else "covered"] += 1
    assert all(seen[k] for k in ("ValueError", "NodeBudgetExceeded", "uncovered", "covered")), seen


def _long_window_cases(rng):
    """(a, b, n, max_cells) at n = 1..4, 300 in all: seeded windows, x > 1,
    windows just above an (n-1)-term sum, where cells accumulate and
    max_cells binds, a on a best value, b = H_n and int endpoints."""
    cases = []
    for n, draws in ((1, 50), (2, 80), (3, 80), (4, 40)):
        hn = harmonic(n)
        for _ in range(draws):
            b = random_rational(rng, max_den=60, lo=Fraction(1, 6), hi=hn)
            a = b - Fraction(1, rng.randrange(5, 200))
            if a <= 0:
                a = b / 2
            cases.append((a, b, n, rng.randrange(1, 14 if n == 4 else 30)))
    for n in (2, 3, 4):
        hn = harmonic(n)
        for _ in range(8):  # accumulation: the level-n sums pile up above
            # every (n-1)-term sum q, so the walk toward q stops at max_cells
            q = best_underapprox(random_rational(rng, max_den=30, lo=Fraction(1, 4), hi=harmonic(n - 1)),
                                 n - 1)[0]
            cases.append((q, q + Fraction(1, rng.randrange(40, 400)), n, rng.randrange(5, 25)))
        for _ in range(4):  # x > 1
            b = random_rational(rng, max_den=40, lo=Fraction(1), hi=hn)
            cases.append((b - Fraction(1, rng.randrange(10, 60)), b, n, 12))
        b = random_rational(rng, max_den=40, lo=Fraction(1, 3), hi=hn)
        a = best_underapprox(best_underapprox(b, n)[0], n)[0]
        cases += [(a, b, n, 10),                              # a on a best value
                  (hn - Fraction(1, 40), hn, n, 20),          # b = H_n
                  (Fraction(7, 8), 1, n, 10), (1, Fraction(9, 8), n, 10), (1, Fraction(3, 2), n, 6)]
    return cases


@pytest.mark.parametrize("search_cells", [1, 3, None], ids=["1", "3", "module"])
def test_cells_in_window_matches_fraction_oracle_on_long_walks(monkeypatch, search_cells):
    # the walk against the per-cell Fraction oracle, with one search per
    # cell, per three cells and per SEARCH_CELLS cells: so most walks span
    # several searches, and the ones in test_..._longer_than_one_search
    # more than SEARCH_CELLS cells
    if search_cells is not None:
        monkeypatch.setattr(partition, "SEARCH_CELLS", search_cells)
    cases = _long_window_cases(random.Random(0x3A1))
    assert len(cases) >= 300
    bound = Counter()
    for a, b, n, max_cells in cases:
        want = oracle_partition.cells_in_window(a, b, n, max_cells)
        assert repr(cells_in_window(a, b, n, max_cells)) == repr(want), (a, b, n, max_cells)
        bound[n] += want[1] > 0
    assert all(bound[n] >= 5 for n in (2, 3, 4)), bound


@pytest.mark.parametrize("a, b, n, max_cells", [
    (Fraction(1, 3), Fraction(1, 2), 2, 150),
    (Fraction(1, 4), Fraction(1, 3), 3, 140),
    (Fraction(1, 7), Fraction(1, 6), 4, 70),
])
def test_cells_in_window_longer_than_one_search(a, b, n, max_cells):
    assert max_cells > partition.SEARCH_CELLS
    want = oracle_partition.cells_in_window(a, b, n, max_cells)
    assert len(want[0]) > partition.SEARCH_CELLS
    assert repr(cells_in_window(a, b, n, max_cells)) == repr(want)


@pytest.mark.parametrize("n, a, b", [
    (2, Fraction(1, 3), Fraction(1, 2)),
    (3, Fraction(1, 4), Fraction(1, 3)),
    (4, Fraction(1, 7), Fraction(1, 6)),
])
def test_window_search_state_is_its_values(n, a, b):
    # a search listing count values holds them and its path, nothing that
    # grows with the tree it walks: its peak lies within 2 KB + 32 B per
    # value of the list it returns (the list's own growth), at count = 8,
    # 64 and 512, while the list itself grows with count
    search._next_values(b.numerator, b.denominator, n, 4, a.numerator, a.denominator, None)
    held = []
    for count in (8, 64, 512):
        tracemalloc.start()
        try:
            values = search._next_values(b.numerator, b.denominator, n, count,
                                         a.numerator, a.denominator, None)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(values) == count
        assert peak - current < 2048 + 32 * count, (count, current, peak)
        held.append(current)
    assert held[0] < held[1] < held[2], held


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cells_in_window_reads_every_endpoint_form(n):
    # the walk reads a Fraction endpoint as it is, and anything else through
    # Fraction(): int, Fraction and string endpoints, b = H_n exactly, all
    # print the oracle's reprs, and b just above H_n raises its error text
    hn = harmonic(n)
    a = hn - Fraction(1, 40)
    cases = [(a, hn), (str(a), str(hn)), (a, str(hn)), (str(a), hn),
             (Fraction(1, 5), "1/4"), ("1/5", Fraction(1, 4)), (Fraction(9, 10), 1)]
    if n >= 2:
        cases.append((1, "21/20"))
    for a_in, b_in in cases:
        got = cells_in_window(a_in, b_in, n, 3)
        assert repr(got) == repr(oracle_partition.cells_in_window(a_in, b_in, n, 3)), (a_in, b_in)
        if type(b_in) is Fraction:
            assert got[0][0].upper is b_in
        assert all(type(c.lower) is type(c.upper) is Fraction for c in got[0])
    above = hn + Fraction(1, 10**30)
    for b_in in (above, str(above)):
        with pytest.raises(ValueError) as want:
            oracle_partition.cells_in_window(a, b_in, n, 3)
        with pytest.raises(ValueError) as got:
            cells_in_window(a, b_in, n, 3)
        assert str(got.value) == str(want.value)


def test_cells_in_window_max_cells_must_be_a_count():
    # a float, a bool or a string is no cell count: each is refused with the
    # negative count's message, where 2.5 listed 3 cells, True 1 and "3"
    # raised TypeError
    for bad, shown in ((2.5, "2.5"), (True, "True"), (False, "False"), ("3", "'3'"),
                       (Fraction(3), "Fraction(3, 1)"), (-1, "-1")):
        with pytest.raises(ValueError) as info:
            cells_in_window(Fraction(1, 3), Fraction(1, 2), 2, bad)
        assert str(info.value) == f"max_cells must be >= 0, got {shown}"
    assert len(cells_in_window(Fraction(1, 3), Fraction(1, 2), 2, 3)[0]) == 3


def test_cell_of_matches_fraction_oracle(rng):
    seen = Counter()
    for n in (2, 3, 4):
        hn = harmonic(n)
        xs = [random_rational(rng, max_den=60, lo=Fraction(1, 5), hi=hn) for _ in range(16)]
        xs += [hn, hn + Fraction(1, 10**20), 1, 3, best_underapprox(Fraction(4, 5), n)[0], 0]
        for x in xs:
            budget = rng.choice((30, 300, 3000, 20_000))
            want = _outcome(oracle_partition.cell_of, x, n, budget)
            assert _outcome(cell_of, x, n, budget) == want, (x, n, budget)
            seen[want[0].__name__ if type(want) is tuple else "cell"] += 1
    assert all(seen[k] for k in ("ValueError", "NodeBudgetExceeded", "cell")), seen


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lower, upper", [
    (lambda n: 1, lambda n: 1 + Fraction(1, n * (n + 1))),             # int lower
    (lambda n: 1 - Fraction(1, n * (n + 1)), lambda n: 1),             # int upper
    (lambda n: Fraction(2, 7), lambda n: Fraction(2, 7) + Fraction(1, n * (n + 1))),
], ids=["int-lower", "int-upper", "fractions"])
def test_cell_length_bound_is_inclusive(n, lower, upper):
    # a bounded cell exactly 1/(n(n+1)) long is accepted, and one 1/10^40
    # longer is refused with the message the Fraction check printed
    lo, hi = lower(n), upper(n)
    assert Cell(n, lo, hi, None).length() == Fraction(1, n * (n + 1))
    for lo, hi in ((lo - Fraction(1, 10**40), hi), (lo, hi + Fraction(1, 10**40))):
        with pytest.raises(ValueError) as info:
            Cell(n, lo, hi, None)
        assert str(info.value) == (f"bounded level-{n} cell longer than 1/{n * (n + 1)}: "
                                   f"({format_rational(lo)}, {format_rational(hi)}]")


def test_refinement_examples():
    assert refinement_check(Fraction(11, 24), 2)
    assert refinement_check(Fraction(1), 2)
    assert refinement_check(Fraction(10), 3)  # nested unbounded cells


def test_refinement_random(rng):
    for _ in range(15):
        x = random_rational(rng, max_den=80)
        for n in (2, 3):
            assert refinement_check(x, n)


def test_refinement_reads_the_coarse_cell_first(monkeypatch):
    # for x > H_(n-1) the coarse cell is the unbounded one, which holds the
    # level-n cell, so no right endpoint is searched for; below, one per level
    levels = []

    def counted(q, n, *args, **kwargs):
        levels.append(n)
        return next_point_above(q, n, *args, **kwargs)

    monkeypatch.setattr("egy.partition.next_point_above", counted)
    assert refinement_check(Fraction(7, 4), 3)  # H_2 = 3/2 < 7/4 <= H_3
    assert refinement_check(Fraction(10), 3)
    assert levels == []
    assert refinement_check(Fraction(11, 24), 2)
    assert levels == [1, 2]


def test_next_regular_above_examples():
    for n in (1, 2, 3, 4):
        assert next_regular_above(harmonic(n), n) == harmonic(n)
    assert next_regular_above(Fraction(1, 2), 1) == Fraction(1, 2)
    # 0.49 at level 2: values 1/2 + 1/m accumulate at 1/2 from above, so the
    # infimum is not attained; the result must still be within the window
    x = Fraction(49, 100)
    r = next_regular_above(x, 2)
    assert x <= r <= x + Fraction(1, 6)


def test_next_regular_above_rejects_out_of_range():
    with pytest.raises(ValueError):
        next_regular_above(Fraction(0), 2)
    with pytest.raises(ValueError):
        next_regular_above(harmonic(2) + 1, 2)


def test_regular_density(rng):
    for n in (1, 2, 3, 4):
        for _ in range(40):
            x = random_rational(rng, max_den=600, hi=harmonic(n))
            r = next_regular_above(x, n)
            assert x <= r <= x + Fraction(1, n * (n + 1))


def test_next_regular_above_matches_term_by_term_oracle():
    # the closed-form tails against the tails added term by term: per n,
    # H_n, 1/2, H_n/7 and random x for each denominator bound.  The
    # oracle's bisection takes 0.1-11 s per x at n = 12 with 40-bit
    # denominators (0.005 s here), so those get few oracle draws and more
    # checks of the density bound alone
    rng = random.Random(0x5E6)
    cases = []
    for n in range(1, 13):
        hn = harmonic(n)
        cases += [(hn, n), (Fraction(1, 2), n), (hn / 7, n)]
        for max_den in (49, 10**4 - 1, 2**40 - 1):
            draws = {(11, 2**40 - 1): 12, (12, 2**40 - 1): 3}.get((n, max_den), 45)
            cases += [(random_rational(rng, max_den=max_den, hi=hn), n) for _ in range(draws)]
    assert len(cases) >= 1500
    for x, n in cases:
        assert next_regular_above(x, n) == oracle_regular.next_regular_above(x, n), (x, n)
    for _ in range(100):
        x = random_rational(rng, max_den=2**40 - 1, hi=harmonic(12))
        assert x <= next_regular_above(x, 12) <= x + Fraction(1, 156), x


def test_next_regular_above_matches_closed_form_oracle_for_tiny_x():
    # the integer chain ends against the whole closed-form Fraction tails at
    # n = 12, where the term-by-term oracle's bisection is far too slow:
    # x = 1/10^k, x = 1/c exactly (the gap's slack is 0) and x = 1/c +- 1/10^k
    rng = random.Random(0x7E6)
    cases = [Fraction(1, 10**k) for k in (30, 75, 150, 300)]
    for _ in range(12):
        c = rng.randrange(2, 10**rng.randrange(1, 13))
        tiny = Fraction(1, 10**rng.randrange(len(str(c)) + 1, 60))
        cases += [Fraction(1, c), Fraction(1, c) + tiny, Fraction(1, c) - tiny]
    for x in cases:
        assert next_regular_above(x, 12) == oracle_regular.closed_form_next_regular_above(x, 12), x


def test_regular_decision_matches_the_summed_tail():
    # from p = 0 with low = c + 1, c = floor(1/need), the descent returns
    # None exactly when the chain from c + 1 does not reach need, so this
    # diffs the capped decision against the tail summed term by term, for
    # r = 1..12: at need = 1/c (slack 0), at need = 1/c - 1/E with E at and
    # beside each chain term m_k (where a cap one too low stops short), and
    # at random need
    rng = random.Random(0xC4A)
    decided = []
    for r in range(1, 13):
        needs = [Fraction(rng.randrange(1, 10**6), 10**6) for _ in range(10)]
        for c in (1, 2, 3, 7, 12):
            needs.append(Fraction(1, c))
            m = c + 1
            for _ in range(r + 1):
                m = (m - 1) * m + 1
                needs += [Fraction(1, c) - 1 / e
                          for e in (Fraction(m - 1), m - Fraction(1, 2), Fraction(m), m + Fraction(1, 2))]
        for need in needs:
            c = need.denominator // need.numerator
            got = _regular_descend(need, Fraction(1), r, c + 1, Fraction(0))
            reaches = oracle_regular._sylvester_maxtail(c + 1, r) >= need
            assert (got is not None) == reaches, (need, r)
            assert got == oracle_regular._closed_form_descend(need, Fraction(1), r, c + 1, Fraction(0))
            decided.append(reaches)
    assert 0 < sum(decided) < len(decided)


def test_next_regular_above_term_limit():
    assert next_regular_above(Fraction(1, 2), 12) >= Fraction(1, 2)
    with pytest.raises(ValueError, match="n=13 exceeds the term limit 12"):
        next_regular_above(Fraction(1, 2), 13)


@pytest.mark.parametrize("argv", [
    "regular 1/2 24",
    "cell 1/2 2000000",
    "cells 1/4 1/3 2000000",
    "chain 1/2 200000 200001",
    "sample 200000 200001 --count 1",
], ids=lambda argv: argv.split()[0])
def test_regular_cli_exits_2_past_the_term_limit(argv):
    # the level is checked before any work: regular 1/2 24 would run for
    # minutes and print megabytes, and cell 1/2 2000000 would sum H_2000000
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-m", "egy", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=10)
    assert time.time() - t0 < 10
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "term limit" in proc.stderr


def test_regular_spacing_shared_prefix():
    # values sharing the prefix differ by exactly 1/((m-1)m) for consecutive
    # last denominators
    prefix = Fraction(1, 2)
    values = [prefix + Fraction(1, m) for m in range(3, 30)]
    for v1, v2, m in zip(values, values[1:], range(4, 30)):
        assert v1 - v2 == Fraction(1, (m - 1) * m)


def test_regular_value_structure():
    # the returned value decomposes into 1..l followed by a chain obeying
    # m_{k+1} >= (m_k - 1) m_k + 1
    from egy.search import has_representation

    x = Fraction(9, 25)
    r = next_regular_above(x, 2)
    assert r == Fraction(1, 3) + Fraction(1, 37)
    rep = has_representation(r, 2)
    assert rep is not None
    m1, m2 = rep.denominators
    assert m2 >= (m1 - 1) * m1 + 1


def test_csv_export():
    cells, _ = cells_in_window(Fraction(3, 4), Fraction(1), 1, 10)
    text = cells_to_csv(cells + [Cell(1, Fraction(1), None, None)])
    lines = text.strip().splitlines()
    assert lines[0] == "level,lower,upper,length,best_rep"
    assert lines[1] == "1,3/4,1,1/4,2"
    assert lines[2] == "1,1,+inf,,"

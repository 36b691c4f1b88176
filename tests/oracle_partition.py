"""The ``Fraction`` loops of the partition walk, kept as the oracle of
``egy.partition.cell_of`` and ``egy.partition.cells_in_window``.

These are the two functions as they were before they called the integer
search core: every cursor, best value and endpoint is a ``Fraction``,
compared with ``Fraction`` operators, and each step calls the public
``best_underapprox``.  The argument checks and their messages are the
same.  ``tests/test_partition.py`` diffs the library against them.
"""

from fractions import Fraction

from egy.greedy import level_harmonic
from egy.partition import Cell
from egy.rational import format_rational
from egy.search import best_underapprox, next_point_above


def cell_of(x, n, node_budget=None):
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"cell_of() needs x > 0, got {format_rational(x)}")
    hn = level_harmonic(n, 1, "cell_of")
    if x > hn:
        return Cell(level=n, lower=hn, upper=None, best_rep=None)
    lower, rep = best_underapprox(x, n, node_budget)
    upper = next_point_above(lower, n, node_budget, check=False)
    return Cell(level=n, lower=lower, upper=upper, best_rep=rep)


def cells_in_window(a, b, n, max_cells=10_000, node_budget=None):
    a, b = Fraction(a), Fraction(b)
    if not 0 < a < b <= level_harmonic(n, 1, "cells_in_window"):
        raise ValueError(f"need 0 < a < b <= harmonic({n}), got a={format_rational(a)}, "
                         f"b={format_rational(b)}")
    if max_cells < 0:
        raise ValueError(f"max_cells must be >= 0, got {format_rational(max_cells)}")
    cells = []
    cursor = b
    while len(cells) < max_cells and cursor > a:
        best, rep = best_underapprox(cursor, n, node_budget)
        lower = best if best > a else a
        cells.append(Cell(level=n, lower=lower, upper=cursor, best_rep=rep))
        cursor = best
    uncovered = cursor - a if cursor > a else Fraction(0)
    return cells, uncovered

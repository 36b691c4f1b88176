"""The benchmark's workloads: seeded inputs, the ops that run them through
egy's public API, and the correctness check of every op.

A run is a sequence of passes.  Pass k of a workload is a fixed list of ops
drawn by ``PassDraw(workload, seed, k)``, so the same seed always gives the
same inputs and pass 0 is the same whatever the speed of the machine.  Ops
look up egy functions through their modules at call time, so the tracer's
wrappers see them.  Every solver call passes an explicit node budget, so
``EGY_NODE_BUDGET`` cannot change the work.  ``speed_unit`` names the unit
of ``speed.py`` whose work is most like the workload's.

Each op returns its result object and the JSON text the CLI would print for
it; the check reads the result object with its own ``Fraction`` arithmetic
and never calls back into egy, so it adds nothing to the traced layers.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import NamedTuple

from egy import lemma1, measure, partition, rational

DYADIC = 1 << 32


class Op(NamedTuple):
    kind: str
    args: tuple


class CheckError(Exception):
    """An op's output breaks an invariant that holds for any input."""


GOLDEN = 0.6180339887498949  # (sqrt(5) - 1) / 2


class PassDraw:
    """The random inputs of pass k of a run with a given seed.

    ``strata`` draws one integer from each of count equal strata of a range.
    The point in stratum j sits at (u_j + k * GOLDEN) mod 1 of the stratum,
    where u_j is drawn once per seed and call site: the golden-ratio steps
    cover each stratum evenly over a run's passes, so two seeds' runs see
    nearly the same spread of inputs.  Op costs span three orders of
    magnitude, and with independent draws a run's quantiles swing by 10%
    with its seed.  ``rng`` is the pass's own generator for the rest.
    """

    def __init__(self, workload: str, seed: int, k: int):
        self.rng = random.Random(f"{workload}:{seed}:{k}")
        self._run = f"{workload}:{seed}"
        self._shift = k * GOLDEN
        self._calls = 0

    def strata(self, lo: int, hi: int, count: int) -> list[int]:
        base = random.Random(f"{self._run}:strata{self._calls}")
        self._calls += 1
        width = hi - lo + 1
        return [lo + min(int((j + (base.random() + self._shift) % 1) * width / count), width - 1)
                for j in range(count)]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _unit_sum(denominators) -> Fraction:
    return sum((Fraction(1, m) for m in denominators), Fraction(0))


def _greedy_value(x: Fraction, n: int) -> Fraction:
    """Greedy n-term value strictly below x (an independent re-statement)."""
    total, prev = Fraction(0), 0
    for _ in range(n):
        gap = x - total
        m = max(gap.denominator // gap.numerator + 1, prev + 1)
        total += Fraction(1, m)
        prev = m
    return total


def _dyadic_top(top: Fraction) -> int:
    """floor(top * 2^32): the largest numerator c with c / 2^32 <= top."""
    return top.numerator * DYADIC // top.denominator


def _dyadic(rng: random.Random, lo: int, hi: int) -> Fraction:
    """c / 2^32 with c uniform in [lo + 1, hi]."""
    return Fraction(rng.randrange(lo + 1, hi + 1), DYADIC)


def _cell_json(cell) -> dict:
    return {
        "level": cell.level,
        "lower": rational.format_rational(cell.lower),
        "upper": "+inf" if cell.upper is None else rational.format_rational(cell.upper),
        "length": None if cell.upper is None else rational.format_rational(cell.upper - cell.lower),
        "best_rep": None if cell.best_rep is None else list(cell.best_rep),
    }


# ---------------------------------------------------------------------------
# sample_chain: one sample of the paper's density experiment per op.


class SampleChain:
    name = "sample_chain"
    n0, t = 2, 4
    # An undecided sample costs a whole budget.  At the density experiment's
    # 300k about 10% of samples are undecided and they swing a 30 s run's
    # time by about 10% between seeds; at 30k about 16% are, and p90 falls
    # inside that budget-bound group instead of on its edge.
    node_budget = 30_000
    pass_ops = 300
    speed_unit = "search"

    def __init__(self):
        self.top = _dyadic_top(rational.harmonic(self.n0))

    def config(self) -> dict:
        return {"pass_ops": self.pass_ops, "n0": self.n0, "t": self.t,
                "node_budget": self.node_budget, "x": "c/2^32 stratified over (0, H_2]"}

    def make_pass(self, draw: PassDraw) -> list[Op]:
        # One x from each of pass_ops equal strata, in random order.  Nearly
        # all undecided samples lie below 0.3, so a uniform draw would swing
        # a pass's time by about 13% with their number; the strata still
        # sample (0, H_2] uniformly.
        ops = [Op("chain", (Fraction(c, DYADIC),))
               for c in draw.strata(1, self.top, self.pass_ops)]
        draw.rng.shuffle(ops)
        return ops

    def warm_up(self) -> None:
        self.run(Op("chain", (Fraction(11, 24),)))

    def run(self, op: Op):
        report = measure.chain_check(op.args[0], self.n0, self.t, stop_on_failure=True,
                                     node_budget=self.node_budget)
        return report, json.dumps(report.to_dict())

    def layer_split(self, m: dict) -> dict[str, bool]:
        """What the workload was chosen for, read from the traced metrics."""
        return {
            "kernels.max_below.s >= 0.8 * trace.wall_s":
                m["kernels.max_below.s"] >= 0.8 * m["trace.wall_s"],
            "search.next_point.calls == 0": m["search.next_point.calls"] == 0,
        }

    def check(self, op: Op, report, ctx: dict) -> None:
        x = op.args[0]
        values, diffs = report.best_values, report.diffs
        _require(report.x == x and 1 <= len(values) <= self.t - self.n0 + 1,
                 "chain report shape")
        for level, value in zip(range(self.n0, self.t + 1), values):
            _require(_greedy_value(x, level) <= value < x,
                     f"best value {value} at level {level} not in [greedy, x)")
        _require(list(diffs) == [b - a for a, b in zip(values, values[1:])], "diffs")
        if report.verdict:
            _require(len(values) == self.t - self.n0 + 1, "passing chain stopped early")
            denoms = [d.denominator for d in diffs]
            _require(all(d.numerator == 1 for d in diffs) and denoms == sorted(set(denoms)),
                     "passing chain has a non-unit or non-increasing difference")
            base = list(report.base_rep)
            _require(len(base) == self.n0 and base == sorted(set(base))
                     and base[-1] < denoms[0], "base witness shape")
            _require(_unit_sum(base) == values[0], "base witness does not sum to the best value")
        else:
            _require(report.failure_level is not None, "failing chain without a level")


# ---------------------------------------------------------------------------
# partition_walk: window walks and cell lookups, both through min-above.


class PartitionWalk:
    name = "partition_walk"
    # Caps one min-above search at a few tens of ms; near 0 and at level 4 a
    # single search can otherwise run for seconds.
    node_budget = 4_000
    speed_unit = "search"
    # (kind, level, ops per pass, max cells per window); short windows keep
    # one slow neighbourhood from dominating a pass
    plan = (
        ("window", 2, 16, 4),
        ("window", 3, 32, 3),
        ("window", 4, 6, 2),
        ("cell", 2, 8, 0),
        ("cell", 3, 12, 0),
        ("cell", 4, 8, 0),
    )

    def __init__(self):
        self.tops = {n: _dyadic_top(rational.harmonic(n)) for n in range(1, 5)}

    def config(self) -> dict:
        return {"node_budget": self.node_budget,
                "plan": self.plan,
                "window": "b = c/2^32 stratified over (0, H_n], a = b - 1/(stratified [30, 300])"}

    def make_pass(self, draw: PassDraw) -> list[Op]:
        ops = []
        for kind, n, count, max_cells in self.plan:
            # stratify the position: the walk is much slower near 0
            ends = [Fraction(c, DYADIC) for c in draw.strata(1, self.tops[n], count)]
            if kind == "cell":
                ops += [Op("cell", (b, n)) for b in ends]
                continue
            inverse_lengths = draw.strata(30, 300, count)
            draw.rng.shuffle(inverse_lengths)
            for b, inv in zip(ends, inverse_lengths):
                a = b - Fraction(1, inv)
                if a <= 0:
                    a = b / 2
                ops.append(Op("window", (a, b, n, max_cells)))
        draw.rng.shuffle(ops)
        return ops

    def warm_up(self) -> None:
        self.run(Op("window", (Fraction(5, 12), Fraction(11, 24), 2, 3)))

    def run(self, op: Op):
        if op.kind == "cell":
            cell = partition.cell_of(*op.args, node_budget=self.node_budget)
            return cell, json.dumps(_cell_json(cell))
        a, b, n, max_cells = op.args
        cells, uncovered = partition.cells_in_window(a, b, n, max_cells=max_cells,
                                                     node_budget=self.node_budget)
        text = json.dumps({"cells": [_cell_json(c) for c in cells],
                           "uncovered": rational.format_rational(uncovered)})
        return (cells, uncovered), text

    def layer_split(self, m: dict) -> dict[str, bool]:
        """What the workload was chosen for, read from the traced metrics."""
        leaves = [k for k in m if k.endswith(".s")
                  and k.startswith(("kernels.", "search.", "greedy.", "rational."))]
        return {"search.next_point.s is the largest layer":
                max(leaves, key=m.get) == "search.next_point.s"}

    def _check_cell(self, cell, n: int, lower_clip: Fraction | None = None) -> None:
        _require(cell.level == n and cell.upper is not None and cell.lower < cell.upper,
                 "cell shape")
        _require(cell.upper - cell.lower <= Fraction(1, n * (n + 1)),
                 "cell longer than 1/(n(n+1))")
        rep = list(cell.best_rep)
        _require(1 <= len(rep) <= n and rep == sorted(set(rep)), "witness shape")
        value = _unit_sum(rep)
        if lower_clip is not None and cell.lower == lower_clip:
            _require(value <= lower_clip, "clipped cell's witness above the window")
        else:
            _require(value == cell.lower, "witness does not sum to the cell's lower end")

    def check(self, op: Op, result, ctx: dict) -> None:
        if op.kind == "cell":
            x, n = op.args
            _require(result.upper is not None and result.lower < x <= result.upper,
                     f"cell_of({x}) does not contain x")
            self._check_cell(result, n)
            return
        a, b, n, max_cells = op.args
        cells, uncovered = result
        _require(1 <= len(cells) <= max_cells and cells[0].upper == b, "window start")
        for left, right in zip(cells[1:], cells):
            _require(left.upper == right.lower, "window cells do not abut")
        for cell in cells:
            self._check_cell(cell, n, lower_clip=a)
        _require(cells[-1].lower >= a and uncovered == cells[-1].lower - a,
                 "uncovered remainder")
        _require(uncovered == 0 or len(cells) == max_cells, "walk stopped early")
        _require(uncovered + sum((c.upper - c.lower for c in cells), Fraction(0)) == b - a,
                 "cells do not tile the window")


# ---------------------------------------------------------------------------
# certificates: the Lemma-1 modes, the exact measure and the decay bound.


class Certificates:
    name = "certificates"
    paper_i = (1000, 2048, 3)   # (lo, hi, ops per pass), one op per stratum
    small_i = (20, 150, 8)      # direct, exact and nongreedy at each of these i
    direct_i = (150, 400, 8)
    decay = (20, 60, 4, 2, 6)   # 1/length in [20, 60], ops, extra slices in [2, 6]
    speed_unit = "bigint"

    def config(self) -> dict:
        return {"paper_i": self.paper_i, "small_i": self.small_i,
                "direct_i": self.direct_i, "decay": self.decay}

    def make_pass(self, draw: PassDraw) -> list[Op]:
        ops = [Op("paper", (i,)) for i in draw.strata(*self.paper_i)]
        for i in draw.strata(*self.small_i):
            ops += [Op("direct", (i,)), Op("exact", (i,)), Op("nongreedy", (i,))]
        ops += [Op("direct", (i,)) for i in draw.strata(*self.direct_i)]
        lo, hi, count, extra_lo, extra_hi = self.decay
        extras = draw.strata(extra_lo, extra_hi, count)
        draw.rng.shuffle(extras)
        for inv_len, extra in zip(draw.strata(lo, hi, count), extras):
            q = _dyadic(draw.rng, 0, DYADIC)
            i0 = inv_len + 1  # smallest i with 1/i < length
            ops.append(Op("decay", (q, q + Fraction(1, inv_len), i0 + extra)))
        draw.rng.shuffle(ops)
        return ops

    def warm_up(self) -> None:
        self.run(Op("exact", (20,)))

    def run(self, op: Op):
        if op.kind == "nongreedy":
            i = op.args[0]
            value = lemma1.nongreedy_two_term_measure(i)
            interval = Fraction(1, (i - 1) * i)
            text = json.dumps({"i": i, "measure": rational.format_rational(value),
                               "interval_length": rational.format_rational(interval),
                               "ratio": rational.format_rational(value / interval)})
            return value, text
        if op.kind == "decay":
            q, r, i_max = op.args
            cell = partition.Cell(level=2, lower=q, upper=r, best_rep=None)
            report = measure.cell_decay_bound(cell, i_max, slice_bound="exact")
            return report, json.dumps(report.to_dict())
        report = lemma1.lemma1_certificate(op.args[0], op.kind)
        return report, json.dumps(report.to_dict())

    def layer_split(self, m: dict) -> dict[str, bool]:
        """What the workload was chosen for, read from the traced metrics."""
        search_calls = sum(m[f"search.{n}.calls"] for n in ("best", "next_point", "has_rep"))
        exact_work = sum(m[k] for k in ("rational.sum_exact.s", "rational.format.s",
                                        "kernels.min_competitors.s", "kernels.direct_terms.s"))
        return {"search.*.calls == 0": search_calls == 0,
                "rational.* + min_competitors + direct_terms > 0.5 * trace.wall_s":
                exact_work > 0.5 * m["trace.wall_s"]}

    def check(self, op: Op, result, ctx: dict) -> None:
        if op.kind == "decay":
            q, r, i_max = op.args
            enc, length = result.enclosure, r - q
            _require(0 <= enc.lower <= enc.upper <= length, "decay enclosure outside [0, length]")
            _require(result.ratio == enc.upper / length, "decay ratio")
            return
        i = op.args[0]
        if op.kind == "nongreedy":
            ctx[("nongreedy", i)] = result
        else:
            interval = Fraction(1, (i - 1) * i)
            _require(result.i == i and result.mode == op.kind, "certificate identity")
            _require(result.interval_length == interval, "interval length")
            _require(0 <= result.certified_measure <= interval, "measure outside the slice")
            _require(result.ratio == result.certified_measure / interval, "ratio")
            _require(result.passed and result.ratio >= Fraction(1, 1000),
                     f"{op.kind} certificate at i={i} did not pass")
            ctx[(op.kind, i)] = result.certified_measure
        measures = [ctx.get((mode, i)) for mode in ("paper", "direct", "exact")]
        known = [m for m in measures if m is not None]
        _require(known == sorted(known), f"paper <= direct <= exact fails at i={i}")
        if ("nongreedy", i) in ctx and ("exact", i) in ctx:
            _require(ctx[("nongreedy", i)] == ctx[("exact", i)],
                     f"nongreedy and exact measures differ at i={i}")


WORKLOADS = {w.name: w for w in (SampleChain, PartitionWalk, Certificates)}

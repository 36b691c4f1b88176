"""Chain verification, sampled chain density, and the per-cell decay bound.

A point x is "chained" from level n0 through t when its best values at the
consecutive levels differ by unit fractions with strictly increasing
denominators and the level-n0 value has an n0-term representation whose
denominators all precede them.  That is equivalent to one increasing
denominator sequence realizing every best value in the range.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

from .greedy import level_harmonic
from .lemma1 import exact_measure
from .partition import Cell
from .rational import ZERO, ONE, EgyptianRep, _from_reduced, _Record, _shown, format_rational, harmonic
from .search import ResourceLimitError, _best_pair, _Budget, has_representation

# 99% two-sided normal quantile, fixed rational constant
WILSON_Z99 = Fraction(2575829303549, 10**12)


class ChainReport(_Record):
    x: Fraction
    n0: int
    t: int
    best_values: tuple[Fraction, ...]
    diffs: tuple[Fraction, ...]
    verdict: bool
    failure_level: int | None
    base_rep: EgyptianRep | None

    def to_dict(self) -> dict:
        return {
            "x": format_rational(self.x),
            "n0": self.n0,
            "t": self.t,
            "best_values": [format_rational(v) for v in self.best_values],
            "diffs": [format_rational(d) for d in self.diffs],
            "verdict": "pass" if self.verdict else "fail",
            "failure_level": self.failure_level,
            "base_rep": None if self.base_rep is None else list(self.base_rep),
        }


class MeasureEnclosure(_Record):
    """Certified lower <= true measure <= upper."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.lower <= self.upper:
            raise ValueError(f"invalid enclosure [{format_rational(self.lower)}, "
                             f"{format_rational(self.upper)}]")


def chain_check(
    x: Fraction,
    n0: int,
    t: int,
    stop_on_failure: bool = False,
    node_budget: int | None = None,
) -> ChainReport:
    """Verify the chain property for x across levels n0..t.

    Passing requires every consecutive best-value difference to be a unit
    fraction, their denominators strictly increasing, and the level-n0 value
    to have an n0-term representation with all denominators below the first
    difference denominator.  Failure is monotone in t, so stop_on_failure
    may cut the level loop at the first bad difference.
    """
    x = Fraction(x)
    if type(n0) is not int or type(t) is not int or not 0 <= n0 < t:  # a bool is no level
        raise ValueError(f"need 0 <= n0 < t, got n0={_shown(n0)}, t={_shown(t)}")
    level_harmonic(t, 1, "chain_check", "t")  # n0 < t, so harmonic(n0) is in range
    if x <= 0:
        raise ValueError(f"chain_check() needs x > 0, got {format_rational(x)}")
    if n0 >= 1 and x > harmonic(n0):
        raise ValueError(f"chain_check() needs x <= harmonic({n0}), got {format_rational(x)}")
    # each level's best value is a reduced pair from the search core, and
    # its difference from the level below is formed and tested on pairs
    xn, xd = x.numerator, x.denominator
    values: list[Fraction] = []
    diffs: list[Fraction] = []
    failure: int | None = None
    pn = pd = last_dd = 0  # the level below: its value, and its difference's denominator
    for level in range(n0, t + 1):
        vn, vd, _ = _best_pair(xn, xd, level, node_budget)
        values.append(_from_reduced(vn, vd))
        if level > n0:
            dn, dd = vn * pd - pn * vd, vd * pd
            g = math.gcd(dn, dd)
            dn, dd = dn // g, dd // g
            diffs.append(_from_reduced(dn, dd))
            # before the first failure the previous denominator is the largest one
            if failure is None and not (dn == 1 and dd > last_dd):
                failure = level
                if stop_on_failure:
                    break
            last_dd = dd
        pn, pd = vn, vd
    base_rep: EgyptianRep | None = None
    if failure is None:
        if n0 == 0:
            base_rep = EgyptianRep(())
        else:
            base_rep = has_representation(values[0], n0, diffs[0].denominator - 1, node_budget)
            if base_rep is None:
                failure = n0
    return ChainReport(
        x=x,
        n0=n0,
        t=t,
        best_values=tuple(values),
        diffs=tuple(diffs),
        verdict=failure is None,
        failure_level=failure,
        base_rep=base_rep,
    )


def _sqrt_upper(v: Fraction) -> Fraction:
    """A rational >= sqrt(v) for v >= 0."""
    prod = v.numerator * v.denominator
    root = math.isqrt(prod)
    if root * root == prod:
        return Fraction(root, v.denominator)
    return Fraction(root + 1, v.denominator)


def wilson_interval(successes: int, trials: int, z: Fraction = WILSON_Z99) -> tuple[Fraction, Fraction]:
    """Wilson score interval, outward-rounded to exact rationals."""
    if trials < 1:
        raise ValueError(f"wilson_interval() needs trials >= 1, got {format_rational(trials)}")
    if z <= 0:  # z = 0 gives the point p, and z < 0 the bounds swapped
        raise ValueError(f"wilson_interval() needs z > 0, got {format_rational(z)}")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, "
                         f"got {format_rational(successes)}/{format_rational(trials)}")
    p = Fraction(successes, trials)
    z2 = z * z
    denom = 1 + z2 / trials
    center = p + z2 / (2 * trials)
    spread = z * _sqrt_upper(p * (1 - p) / trials + z2 / (4 * trials * trials))
    lo = (center - spread) / denom
    hi = (center + spread) / denom
    return max(ZERO, lo), min(ONE, hi)


class SampleReport(_Record):
    s: int
    t: int
    count: int
    seed: int
    bits: int
    passes: int
    fails: int
    undecided: int
    fraction: Fraction
    wilson_low: Fraction
    wilson_high: Fraction
    rows: tuple[tuple[Fraction, str, int | None], ...]

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "count": self.count,
            "seed": self.seed,
            "bits": self.bits,
            "passes": self.passes,
            "fails": self.fails,
            "undecided": self.undecided,
            "fraction": format_rational(self.fraction),
            "wilson_99_interval": [
                format_rational(self.wilson_low),
                format_rational(self.wilson_high),
            ],
        }

    def to_csv(self) -> str:
        lines = ["x,verdict,failure_level"]
        for x, verdict, failure in self.rows:
            lines.append(
                f"{format_rational(x)},{verdict},{'' if failure is None else format_rational(failure)}"
            )
        return "\n".join(lines) + "\n"


def sample_chain_density(
    s: int,
    t: int,
    count: int,
    seed: int,
    bits: int,
    node_budget: int | None = None,
) -> SampleReport:
    """Chain-pass fraction over seeded dyadic samples from (0, harmonic(s)].

    Samples are c / 2^bits with c drawn uniformly from
    [1, floor(harmonic(s) * 2^bits)] by random.Random(seed).randrange, one
    draw per sample in order; seed is an ``int`` that is not a ``bool``.
    Samples whose solver budget runs out are counted as undecided and
    excluded from the fraction.
    """
    hs = level_harmonic(s, 1, "sample_chain_density", "s")
    if type(t) is int and t <= s:  # level_harmonic refuses a t that is no int
        raise ValueError(f"sample_chain_density() needs t > s, got s={format_rational(s)}, "
                         f"t={format_rational(t)}")
    level_harmonic(t, 1, "sample_chain_density", "t")
    for name, value, least in (("count", count, 1), ("bits", bits, 16)):
        if type(value) is not int or value < least:  # a bool is no count
            raise ValueError(f"sample_chain_density() needs {name} >= {least}, got {_shown(value)}")
    if type(seed) is not int:  # a bool, a float or a string would seed random.Random too
        raise ValueError(f"seed must be an int, got {_shown(seed)}")
    scale = 1 << bits
    top = (hs.numerator * scale) // hs.denominator
    rng = random.Random(seed)
    rows: list[tuple[Fraction, str, int | None]] = []
    for _ in range(count):
        x = Fraction(rng.randrange(1, top + 1), scale)
        try:
            report = chain_check(x, s, t, stop_on_failure=True, node_budget=node_budget)
        except ResourceLimitError:
            rows.append((x, "undecided", None))
        else:
            rows.append((x, "pass" if report.verdict else "fail", report.failure_level))
    tally = Counter(verdict for _, verdict, _ in rows)
    passes, fails = tally["pass"], tally["fail"]
    decided = passes + fails
    if decided:
        fraction = Fraction(passes, decided)
        low, high = wilson_interval(passes, decided)
    else:
        fraction, low, high = ZERO, ZERO, ONE
    return SampleReport(
        s=s,
        t=t,
        count=count,
        seed=seed,
        bits=bits,
        passes=passes,
        fails=fails,
        undecided=tally["undecided"],
        fraction=fraction,
        wilson_low=low,
        wilson_high=high,
        rows=tuple(rows),
    )


class DecayReport(_Record):
    cell_lower: Fraction
    cell_upper: Fraction
    level: int
    i0: int
    i_max: int
    slice_bound: str
    enclosure: MeasureEnclosure
    ratio: Fraction
    note: str | None

    def to_dict(self) -> dict:
        return {
            "cell": [format_rational(self.cell_lower), format_rational(self.cell_upper)],
            "level": self.level,
            "i0": self.i0,
            "i_max": self.i_max,
            "slice_bound": self.slice_bound,
            "enclosure": [
                format_rational(self.enclosure.lower),
                format_rational(self.enclosure.upper),
            ],
            "ratio": format_rational(self.ratio),
            "note": self.note,
        }


def cell_decay_bound(
    cell: Cell, i_max: int, slice_bound: str = "lemma", node_budget: int | None = None
) -> DecayReport:
    """Upper enclosure on the chain survivors of a bounded cell (q, r].

    Survivors through two more levels must, within each slice
    I_i = q + (1/i, 1/(i-1)], have y - q best-approximated greedily by two
    terms; the certified non-greedy measure of each slice is subtracted.
    The decomposition is:

      exceptional left part  r - q - 1/i0   (i0 smallest with 1/i0 < r - q)
      + sum over i0 < i <= i_max of (|I_i| - certified non-greedy part)
      + 1/i_max              (slices beyond i_max counted as surviving).

    The exceptional part, the slices' 1/i0 - 1/i_max and the tail add up to
    r - q, so the bound is r - q minus the certified parts; when
    i_max <= i0 nothing is certified and the bound is r - q.

    slice_bound picks the certificate: "exact" runs the full competitor
    enumeration per slice (only viable for small i ranges); "lemma" uses the
    verified one-permille lower bound for slices with i >= 1000 (and nothing
    below), which telescopes to a closed form and scales to i_max ~ 10^7.
    "exact" spends one unit of node_budget per competitor pair, counted
    over every slice before the first one is enumerated.
    """
    if cell.upper is None:
        raise ValueError("cell_decay_bound() needs a bounded cell")
    if slice_bound not in ("lemma", "exact"):
        raise ValueError(f"slice_bound must be 'lemma' or 'exact', got {slice_bound!r}")
    if type(i_max) is not int or i_max < 1:  # a bool is no count
        raise ValueError(f"cell_decay_bound() needs i_max >= 1, got {_shown(i_max)}")
    _Budget(node_budget)  # checked also where no pair is enumerated
    length = cell.upper - cell.lower
    # smallest i0 with 1/i0 < length
    i0 = length.denominator // length.numerator + 1
    note = None
    if i_max <= i0:
        note = "i_max <= i0: tail dominates, the bound is vacuous"
        certified = ZERO
    elif slice_bound == "exact":
        certified, _ = exact_measure(
            range(i0 + 1, i_max + 1), node_budget,
            f"the exact slice bound over i = {format_rational(i0 + 1)}..{format_rational(i_max)}",
        )
    elif i_max < 1000:
        certified = ZERO
        note = "no slice reaches i >= 1000; lemma bound certifies nothing"
    else:
        # |I_i| over max(i0 + 1, 1000) <= i <= i_max telescopes to 1/max(i0, 999) - 1/i_max
        certified = (Fraction(1, max(i0, 999)) - Fraction(1, i_max)) / 1000
    upper = length - certified
    return DecayReport(
        cell_lower=cell.lower,
        cell_upper=cell.upper,
        level=cell.level,
        i0=i0,
        i_max=i_max,
        slice_bound=slice_bound,
        enclosure=MeasureEnclosure(ZERO, upper),
        ratio=upper / length,
        note=note,
    )

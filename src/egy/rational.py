"""Exact rational arithmetic and Egyptian fraction representations.

Every quantity in this package is an exact ``fractions.Fraction`` -- there is
no floating point anywhere.  This module adds the handful of primitives the
rest of the code is built on: harmonic numbers, the immutable record base of
the package's result types, the representation type for sums of distinct
unit fractions, string (de)serialization in ``p/q`` form,
and the one exact summation path over integer (num, den) pairs.  Pairs
with a narrow denominator need not be reduced: runs of consecutive ones
are added by plain cross-multiplication and reduced by one gcd per run.
Pairs with a wide denominator must already be reduced, and join as they
are.  The reduced run sums and wide pairs go onto one stack of partial
sums that merge by size, not by position: classes of denominator width
strictly fall from its bottom to its top, so it holds O(log) entries as
the pairs stream in.  The certificate modules feed it generators of up to
about a million raw terms, and ``sum_exact`` adapts it to ``Fraction``
values.
"""

from __future__ import annotations

import decimal
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


# int() of a str and str() of an int are quadratic in the length, and Python
# refuses both beyond sys.get_int_max_str_digits() (4300 by default).  Below
# about 4000 digits they are used as is; longer ints are parsed by halves and
# printed through decimal, both subquadratic, without touching that limit.
_STR_BITS = 13_000  # 2^13000 has 3914 digits
_STR_LIMIT = 1 << _STR_BITS
_LEAF_BITS = 4096   # the widest leaf of the decimal conversion


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact reduced fraction, of any length."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(parse_int(num), parse_int(den))
    return Fraction(parse_int(text))


def parse_int(text: str) -> int:
    """``int(text)``, also for runs of digits past the digit limit."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if 10 * len(digits) <= 3 * _STR_BITS or not digits.isdecimal():
        return int(text)  # short, or not a plain run of digits: int() decides
    low = len(digits) // 2
    value = parse_int(digits[:-low]) * 10**low + parse_int(digits[-low:])
    return -value if text[0] == "-" else value


@contextmanager
def _exact_decimals():
    """A decimal context in which integer arithmetic never rounds."""
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        yield


def _long_int_decimals(values: Sequence[int]) -> list[decimal.Decimal]:
    """Each int as an exact Decimal, also past the int-to-str digit limit.

    Call it under ``_exact_decimals()``.  The longest value fixes a tree of
    2^k leaves of one width, at most _LEAF_BITS, that covers its bits.
    Every int converts on that tree, splitting each width into two equal
    halves, so all of them share one table of the Decimal powers
    2^(leaf * 2^j).
    """
    leaf, levels = max(abs(v).bit_length() for v in values), 0
    while leaf > _LEAF_BITS:
        leaf = (leaf + 1) >> 1
        levels += 1
    powers: dict[int, decimal.Decimal] = {}

    def pow2(w: int) -> decimal.Decimal:
        if w not in powers:
            if w == leaf:
                powers[w] = decimal.Decimal(1 << w)
            else:
                half = pow2(w >> 1)
                powers[w] = half * half
        return powers[w]

    def convert(m: int, w: int) -> decimal.Decimal:
        # m < 2^w: split off the low half of the bits, convert both halves
        # and join them as hi * 2^half + lo in exact decimal arithmetic
        while w > leaf and m.bit_length() <= w >> 1:
            w >>= 1
        if w == leaf:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(hi, half) * pow2(half) + convert(m - (hi << half), half)

    out = []
    for v in values:
        d = convert(abs(v), leaf << levels)
        out.append(-d if v < 0 else d)
    return out


def format_rational(value: Fraction) -> str:
    """Serialize reduced with positive denominator; integers, and ints, print as "p".

    Works for rationals of millions of digits, whatever the interpreter's
    int-to-str digit limit, and leaves that limit alone.  A ``Fraction``'s
    parts are read from the two slots ``_from_reduced`` fills, as its
    ``numerator`` and ``denominator`` properties cost a Python call each,
    and parts below _STR_BITS bits take ``str()`` at once.
    """
    if type(value) is Fraction:
        num, den = value._numerator, value._denominator
    else:
        num, den = value.numerator, value.denominator
    if (num if num >= 0 else -num) < _STR_LIMIT > den:
        return f"{num}/{den}" if den != 1 else str(num)
    with _exact_decimals():
        return "/".join(map(str, _long_int_decimals((num,) if den == 1 else (num, den))))


def _shown(value) -> str:
    """How an argument check prints value: an int as ``format_rational``
    prints it, anything else, a bool too, by its repr."""
    return format_rational(value) if type(value) is int else repr(value)


def format_rational_scaled(value: Fraction, c: int) -> tuple[str, str]:
    """``(format_rational(value), format_rational(value * c))`` for an int c,
    from one decimal conversion of value.

    With g = gcd(den, c), value * c is num (c/g) / (den/g), reduced because
    c/g and den/g are coprime.  So its digits come from value's Decimals by
    one exact multiplication by c/g and one exact division by g, both
    linear in the digits when c is small, as the certificates' (i-1) i is.
    """
    num, den = value.numerator, value.denominator
    g = gcd(den, c)
    with _exact_decimals():
        dnum, dden = _long_int_decimals((num, den))
        snum, sden = dnum * (c // g), dden // g
        texts = [str(dnum), str(dden), str(snum), str(sden)]
    return (texts[0] if den == 1 else "/".join(texts[:2]),
            texts[2] if den == g else "/".join(texts[2:]))


@lru_cache(maxsize=64)  # every search call asks for H_n at its level
def harmonic(n: int) -> Fraction:
    """n-th harmonic number 1 + 1/2 + ... + 1/n; harmonic(0) == 0."""
    if n < 0:
        raise ValueError(f"harmonic() needs n >= 0, got {format_rational(n)}")
    return sum_exact(Fraction(1, k) for k in range(1, n + 1))


class _Record:
    """Base of the package's immutable result records.

    A subclass lists its fields as class annotations, in order, after those
    of the record it extends.  It gets a constructor that takes them by
    position or keyword and then calls ``__post_init__``, the subclass's
    check if it has one; ``==`` and ``hash`` by value within one class; a
    repr naming every field; and no assignment to attributes.  The values
    live in the instance ``__dict__``, so ``pickle`` and ``copy`` restore
    them without calling ``__setattr__``, and the generic constructor fills
    it in one update.  A record built once per search or per cell writes
    out its own ``__init__`` instead, for speed, with the same fields: it
    fills ``__dict__`` in one update and checks the fields inline; its
    hot callers pass them by position.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = cls._fields + tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = dict(zip(fields, args), **kwargs) if args else kwargs
        if len(values) != len(args) + len(kwargs) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes each of ({', '.join(fields)}) "
                            "once, by position or keyword")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={_repr_value(getattr(self, field))}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _repr_value(value) -> str:
    """``repr(value)``, with the digits of ints and ``Fraction``s, also inside
    tuples, from ``format_rational``: a record's repr then works past the
    int-to-str digit limit, in the same text as below it."""
    kind = type(value)
    if kind is int:
        return format_rational(value)
    if kind is Fraction:
        return f"Fraction({format_rational(value.numerator)}, {format_rational(value.denominator)})"
    if kind is tuple:
        return f"({', '.join(map(_repr_value, value))}{',' * (len(value) == 1)})"
    return repr(value)


class EgyptianRep(_Record):
    """A sum of distinct unit fractions 1/m_1 + ... + 1/m_n, m_1 < ... < m_n.

    The denominators are ``int``s, kept as a tuple whatever iterable they
    come in.  The empty tuple is the unique 0-term representation, with
    value 0.
    """

    denominators: tuple[int, ...]

    def __init__(self, denominators: Iterable[int]) -> None:
        self.__dict__["denominators"] = denominators = tuple(denominators)
        prev = 0
        for m in denominators:
            if type(m) is not int or m <= prev:
                raise ValueError("denominators must be strictly increasing positive integers, "
                                 f"got ({', '.join(map(_shown, denominators))})")
            prev = m

    def __len__(self) -> int:
        return len(self.denominators)

    def __iter__(self):
        return iter(self.denominators)

    def value(self) -> Fraction:
        return rep_value(self)


def make_rep(denominators: Iterable) -> EgyptianRep:
    """The representation with these denominators, each read as ``Fraction(m)``
    reads it (so "4" is 4), and each required to be an integer."""
    values = [Fraction(m) for m in denominators]
    if any(v.denominator != 1 for v in values):
        raise ValueError("denominators must be strictly increasing positive integers, "
                         f"got ({', '.join(map(format_rational, values))})")
    return EgyptianRep(v.numerator for v in values)


def rep_value(rep: EgyptianRep) -> Fraction:
    """Exact value of the representation; 0 for the empty one."""
    return sum_exact(Fraction(1, m) for m in rep.denominators)


def _add_reduced(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad + bn/bd for reduced pairs with positive denominators, reduced.

    Knuth's gcd step (TAOCP 4.5.1), as in ``Fraction`` addition: with
    g = gcd(ad, bd) the only common factor the numerator can share with the
    denominator divides g, so a gcd against g keeps the sum reduced.
    """
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + ad * bn, ad * bd
    s = ad // g
    t = an * (bd // g) + bn * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * bd
    return t // g2, s * (bd // g2)


_WIDE = 1 << 1023  # a denominator of 1024 bits or more is wide
_RUN_END = 1 << 2047  # a run is reduced once its denominator has 2048 bits


def sum_pairs(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of (num, den) pairs with den > 0, from any iterable.

    A pair whose denominator has fewer than 1024 bits is narrow and need
    not be reduced.  Consecutive narrow pairs are added by plain
    cross-multiplication, with no gcd, until the run's denominator
    reaches 2048 bits; then the run is reduced by one gcd.  So the
    Lemma-1 terms, of tens of bits each, pay one gcd per few dozen terms,
    and no run's product passes 3072 bits.  A wide pair must already be
    reduced (``Fraction`` parts are): it closes the current run and joins
    as it is, so huge ``Fraction`` values are never multiplied together
    unreduced.

    Each closed run and each wide pair is pushed onto one stack of
    reduced partial sums.  An entry's class is the bit length of its
    denominator's bit length, and a push first merges with the top while
    the top's class is at most its own.  So classes strictly fall from the
    bottom of the stack to the top: it holds one entry per class at
    most, about log2 of the widest denominator's bit length, and a stream
    of pairs is never held whole.  Partial sums of equal size merge as in a binary
    counter, so huge denominators multiply at log depth (sequential
    addition is quadratic in the running denominator's size), and wide
    values merge in the same order however many narrow runs come before
    them.  Every merge keeps its sum reduced, so the result becomes a
    ``Fraction`` without another gcd.
    """
    stack: list[tuple[int, int, int]] = []  # (den.bit_length().bit_length(), num, den)
    num, den, open_run = 0, 1, False
    for a, b in pairs:
        if b < _WIDE:
            num, den, open_run = num * b + a * den, den * b, True
            if den < _RUN_END:
                continue
        if open_run:
            g = gcd(num, den)
            _push(stack, num // g, den // g)
            num, den, open_run = 0, 1, False
        if b >= _WIDE:
            _push(stack, a, b)
    if open_run:
        g = gcd(num, den)
        _push(stack, num // g, den // g)
    if not stack:
        return ZERO
    _, num, den = stack.pop()
    while stack:
        _, an, ad = stack.pop()
        num, den = _add_reduced(an, ad, num, den)
    return _from_reduced(num, den)


def _push(stack: list[tuple[int, int, int]], num: int, den: int) -> None:
    """Push the reduced pair num/den, first merging it with every top
    entry whose class is at most its own."""
    size = den.bit_length().bit_length()
    while stack and stack[-1][0] <= size:
        _, an, ad = stack.pop()
        num, den = _add_reduced(an, ad, num, den)
        size = den.bit_length().bit_length()
    stack.append((size, num, den))


def _from_reduced(num: int, den: int) -> Fraction:
    """The ``Fraction`` num/den for a reduced pair with den > 0, without the
    gcd that ``Fraction(num, den)`` spends on normalising it.

    Fills the two slots ``Fraction`` keeps its value in (the same names in
    Python 3.10 through 3.13), so it needs no version-specific constructor:
    the private ``_normalize=False`` argument is gone in 3.12.
    """
    value = object.__new__(Fraction)
    value._numerator = num
    value._denominator = den
    return value


def sum_exact(values: Iterable[Fraction]) -> Fraction:
    """Exact sum of fractions: ``sum_pairs`` over their reduced parts."""
    return sum_pairs((v.numerator, v.denominator) for v in values)

import random
from fractions import Fraction

import pytest

from egy import search


@pytest.fixture
def rng():
    return random.Random(0xE617)


def random_rational(rng, max_den=360, lo=Fraction(0), hi=Fraction(2)):
    """A random reduced fraction in (lo, hi] with denominator <= max_den."""
    while True:
        den = rng.randrange(2, max_den + 1)
        num = rng.randrange(1, 2 * den + 1)
        x = Fraction(num, den)
        if lo < x <= hi:
            return x


@pytest.fixture
def budgets(monkeypatch):
    """Every budget object the search creates, in order of creation."""
    made = []

    class Recorded(search._Budget):
        __slots__ = ()

        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(search, "_Budget", Recorded)
    return made

"""The result records: their value contract, and the import footprint of egy.

The seven records, their fields and their pinned reprs are ``RECORDS`` of
``tests/version_check.py``, which also checks them under each local Python.
"""

import copy
import os
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from egy import Cell, EgyptianRep, MeasureEnclosure, cell_of, chain_check
from version_check import RECORDS

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["egy", "egy.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # -S: no site-packages start-up, so only egy and what it imports count
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_contract(cls, fields, text):
    record = cls(**fields)
    values = list(fields.values())
    assert [getattr(record, name) for name in fields] == values
    assert repr(record) == text

    same = cls(*values)
    assert same == record and hash(same) == hash(record)
    assert cls(*values[:1], **dict(list(fields.items())[1:])) == record

    other_class = type("Other" + cls.__name__, (cls,), {})
    assert other_class(**fields) != record and record != other_class(**fields)
    assert record != tuple(values)

    for args, kwargs in [(values[:-1], {}), ([*values, None], {}),
                         (values[:1], fields), ([], {**fields, "unknown": 1})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        record.unknown = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == values[0]

    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record and hash(twin) == hash(record)
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, name, values[0])


@pytest.mark.parametrize("build, message", [
    (lambda: Cell(level=0, lower=Fraction(1, 2), upper=None, best_rep=None),
     "cell level must be >= 1, got 0"),
    (lambda: Cell(level=2, lower=Fraction(-1, 2), upper=None, best_rep=None),
     "cell lower endpoint must be >= 0, got -1/2"),
    (lambda: Cell(2, Fraction(1, 2), Fraction(1, 2), None), "empty cell (1/2, 1/2]"),
    (lambda: Cell(level=3, lower=Fraction(1, 3), upper=Fraction(1, 2), best_rep=None),
     "bounded level-3 cell longer than 1/12: (1/3, 1/2]"),
    (lambda: MeasureEnclosure(Fraction(1, 2), Fraction(1, 3)), "invalid enclosure [1/2, 1/3]"),
    (lambda: MeasureEnclosure(lower=Fraction(-1, 2), upper=Fraction(1, 3)),
     "invalid enclosure [-1/2, 1/3]"),
    (lambda: EgyptianRep((3, 2)),
     "denominators must be strictly increasing positive integers, got (3, 2)"),
    (lambda: EgyptianRep(denominators=(0,)),
     "denominators must be strictly increasing positive integers, got (0)"),
])
def test_record_validation_messages_are_unchanged(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_rep_keeps_its_denominators_as_a_tuple():
    # a list or a generator is stored as the tuple it yields, so the record
    # hashes and equals the one built from that tuple
    for source in ([4, 5], (m for m in (4, 5)), range(4, 6)):
        rep = EgyptianRep(source)
        assert rep.denominators == (4, 5) and type(rep.denominators) is tuple
        assert rep == EgyptianRep((4, 5)) and hash(rep) == hash(EgyptianRep((4, 5)))
        assert repr(rep) == "EgyptianRep(denominators=(4, 5))"


@pytest.mark.parametrize("lower, upper, message", [
    (0.45, Fraction(11, 24), "cell lower endpoint must be an int or a Fraction, got 0.45"),
    (Fraction(9, 20), 0.5, "cell upper endpoint must be an int, a Fraction or None, got 0.5"),
    (Decimal("0.45"), None,
     "cell lower endpoint must be an int or a Fraction, got Decimal('0.45')"),
    (True, None, "cell lower endpoint must be an int or a Fraction, got True"),
    (Fraction(1, 3), False,
     "cell upper endpoint must be an int, a Fraction or None, got False"),
], ids=["float-lower", "float-upper", "decimal", "bool-lower", "bool-upper"])
def test_cell_refuses_endpoints_that_are_not_int_or_fraction(lower, upper, message):
    with pytest.raises(ValueError) as info:
        Cell(2, lower, upper, None)
    assert str(info.value) == message


def test_cell_takes_int_endpoints():
    assert Cell(1, 0, Fraction(1, 2), None).length() == Fraction(1, 2)
    assert Cell(1, 1, None, None).contains(2)


def test_reprs_print_past_the_int_digit_limit():
    # 10^5000 has more digits than int() and str() allow by default (4300);
    # the records print their ints and Fractions, also inside tuples,
    # from format_rational's digits, in the same text
    big = "1" + "0" * 5000
    above = big[:-1] + "1"
    x = Fraction(1, 10**5000)
    assert repr(cell_of(x, 1)) == (f"Cell(level=1, lower=Fraction(1, {above}), upper=Fraction(1, {big}), "
                                   f"best_rep=EgyptianRep(denominators=({above},)))")
    assert repr(EgyptianRep((2, 10**5000))) == f"EgyptianRep(denominators=(2, {big}))"
    assert repr(chain_check(x, 0, 1)) == (
        f"ChainReport(x=Fraction(1, {big}), n0=0, t=1, best_values=(Fraction(0, 1), "
        f"Fraction(1, {above})), diffs=(Fraction(1, {above}),), verdict=True, "
        "failure_level=None, base_rep=EgyptianRep(denominators=()))")

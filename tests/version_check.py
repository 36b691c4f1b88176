"""A stdlib-only check of egy under the Python that runs it.

Usage, from any directory:

    python tests/version_check.py '[[["greedy", "11/24", "3"], "<sha256>"], ...]'

The argument is a JSON list of (argv, sha256 of stdout) pairs, the
``GOLDEN_STDOUT`` of ``tests/test_cli.py``; ``10^k`` in an argument stands
for a 1 and k zeros.  The script checks:

* ``rational._from_reduced`` fills the slots this Python's ``Fraction``
  reads: its values compare, hash, print, pickle and compute as
  ``Fraction(num, den)`` does;
* the same two slots hold the parts of a ``Fraction`` built by this
  Python, as ``format_rational``, ``Cell`` and ``cells_in_window`` read
  them in place of the ``numerator`` and ``denominator`` properties;
* ``rational.sum_pairs`` against ``Fraction`` addition on random narrow
  (unreduced) and wide (reduced) pairs;
* each of the seven result records: built by position and by keyword,
  compared, hashed, printed against its pinned repr and pickled;
* every pair's argv through ``python -m egy``, by its exit code and the
  sha256 of its stdout.

It needs neither pytest nor hypothesis, so it runs under any interpreter
the package supports; ``tests/test_versions.py`` runs it under each local
Python from 3.10 to 3.13.  It prints one line per check and exits 1 at the
first failure.
"""

import hashlib
import json
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from egy import (  # noqa: E402
    Cell,
    ChainReport,
    DecayReport,
    EgyptianRep,
    Lemma1Report,
    MeasureEnclosure,
    SampleReport,
)
from egy.rational import _from_reduced, sum_pairs  # noqa: E402

F = Fraction
# (record class, its fields by name, the repr the dataclass versions printed)
RECORDS = [
    (EgyptianRep, {"denominators": (4, 5)}, "EgyptianRep(denominators=(4, 5))"),
    (Cell, {"level": 2, "lower": F(9, 20), "upper": F(11, 24), "best_rep": EgyptianRep((4, 5))},
     "Cell(level=2, lower=Fraction(9, 20), upper=Fraction(11, 24), "
     "best_rep=EgyptianRep(denominators=(4, 5)))"),
    (Lemma1Report, {"i": 10, "mode": "paper", "selected_count": 3, "certified_measure": F(1, 1000),
                    "interval_length": F(1, 90), "ratio": F(9, 100), "passed": True},
     "Lemma1Report(i=10, mode='paper', selected_count=3, certified_measure=Fraction(1, 1000), "
     "interval_length=Fraction(1, 90), ratio=Fraction(9, 100), passed=True)"),
    (ChainReport, {"x": F(1), "n0": 0, "t": 2, "best_values": (F(0), F(1, 2), F(5, 6)),
                   "diffs": (F(1, 2), F(1, 3)), "verdict": True, "failure_level": None,
                   "base_rep": EgyptianRep(())},
     "ChainReport(x=Fraction(1, 1), n0=0, t=2, best_values=(Fraction(0, 1), Fraction(1, 2), "
     "Fraction(5, 6)), diffs=(Fraction(1, 2), Fraction(1, 3)), verdict=True, failure_level=None, "
     "base_rep=EgyptianRep(denominators=()))"),
    (MeasureEnclosure, {"lower": F(0), "upper": F(1, 7)},
     "MeasureEnclosure(lower=Fraction(0, 1), upper=Fraction(1, 7))"),
    (SampleReport, {"s": 2, "t": 3, "count": 2, "seed": 7, "bits": 32, "passes": 1, "fails": 1,
                    "undecided": 0, "fraction": F(1, 2), "wilson_low": F(1, 10),
                    "wilson_high": F(9, 10), "rows": ((F(1, 3), "pass", None), (F(2, 3), "fail", 3))},
     "SampleReport(s=2, t=3, count=2, seed=7, bits=32, passes=1, fails=1, undecided=0, "
     "fraction=Fraction(1, 2), wilson_low=Fraction(1, 10), wilson_high=Fraction(9, 10), "
     "rows=((Fraction(1, 3), 'pass', None), (Fraction(2, 3), 'fail', 3)))"),
    (DecayReport, {"cell_lower": F(1, 3), "cell_upper": F(23, 60), "level": 2, "i0": 21, "i_max": 26,
                   "slice_bound": "exact", "enclosure": MeasureEnclosure(F(0), F(1, 7)),
                   "ratio": F(20, 7), "note": None},
     "DecayReport(cell_lower=Fraction(1, 3), cell_upper=Fraction(23, 60), level=2, i0=21, i_max=26, "
     "slice_bound='exact', enclosure=MeasureEnclosure(lower=Fraction(0, 1), upper=Fraction(1, 7)), "
     "ratio=Fraction(20, 7), note=None)"),
]


def fail(what):
    print(f"FAIL {what}")
    sys.exit(1)


def check_from_reduced():
    rng = random.Random(1)
    pairs = [(0, 1), (1, 1), (-3, 7), (22, 7), (1, 10**400)]
    for _ in range(200):
        den = rng.randrange(1, 2**rng.randrange(1, 300))
        num = rng.randrange(-(2**300), 2**300)
        g = gcd(num, den)
        pairs.append((num // g, den // g))
    for num, den in pairs:
        value, want = _from_reduced(num, den), Fraction(num, den)
        if not (type(value) is Fraction and (value.numerator, value.denominator) == (num, den)
                and value == want and hash(value) == hash(want) and repr(value) == repr(want)
                and pickle.loads(pickle.dumps(value)) == want
                and value + Fraction(1, 3) == want + Fraction(1, 3) and value * 6 == want * 6
                and (value < 1) == (want < 1) and float(value) == float(want)):
            fail(f"_from_reduced({num}, {den}) is not Fraction({num}, {den})")
        if (want._numerator, want._denominator) != (num, den):
            fail(f"the slots of Fraction({num}, {den}) do not hold its parts")
    print(f"ok _from_reduced and the slots read on {len(pairs)} pairs")


def check_sum_pairs():
    rng = random.Random(2)
    for trial in range(300):
        pairs = []
        for _ in range(rng.randrange(0, 40)):
            if rng.randrange(4):  # narrow, unreduced
                pairs.append((rng.randrange(-(2**40), 2**40), rng.randrange(1, 2**rng.randrange(1, 900))))
            else:  # wide, reduced
                f = Fraction(rng.randrange(-(2**1100), 2**1100), rng.randrange(2**1023, 2**1200))
                pairs.append((f.numerator, f.denominator))
        got = sum_pairs(pairs)
        want = sum((Fraction(a, b) for a, b in pairs), Fraction(0))
        if got != want or hash(got) != hash(want) or gcd(got.numerator, got.denominator) != 1:
            fail(f"sum_pairs on trial {trial}")
    print("ok sum_pairs on 300 random sums")


def check_records():
    for cls, fields, text in RECORDS:
        record = cls(**fields)
        same = cls(*fields.values())
        if not (record == same and hash(record) == hash(same) and repr(record) == text
                and pickle.loads(pickle.dumps(record)) == record
                and [getattr(record, name) for name in fields] == list(fields.values())):
            fail(f"{cls.__name__} record")
    print(f"ok {len(RECORDS)} result records")


def check_golden(golden):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, digest in golden:
        argv = [re.sub(r"10\^(\d+)", lambda m: "1" + "0" * int(m.group(1)), arg) for arg in argv]
        proc = subprocess.run([sys.executable, "-m", "egy", *argv], capture_output=True,
                              env=env, timeout=120)
        shown = " ".join(a if len(a) < 40 else a[:12] + "..." for a in argv)
        if proc.returncode != 0:
            fail(f"egy {shown} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        if hashlib.sha256(proc.stdout).hexdigest() != digest:
            fail(f"egy {shown} printed other bytes")
    print(f"ok {len(golden)} golden outputs")


if __name__ == "__main__":
    print("python", sys.version.split()[0])
    check_from_reduced()
    check_sum_pairs()
    check_records()
    check_golden(json.loads(sys.argv[1]))

"""Seeded fuzzing of the CLI: every invocation ends in a defined way.

A few hundred in-process ``egy.cli.main`` calls over every subcommand,
with malformed, negative, zero and long arguments, node budgets from 1 to
30,000, and the global flags on either side of the subcommand.  Each call
must return 0 with something on stdout, or 2 or 3 with stderr starting
``error:``.  The one exception that may leave ``main`` is argparse's exit
2 for a command line it rejects, which prints a usage message ending
in an ``error:`` line.  Long operands go with low levels: the node budget
does not bound time for huge operands at high levels (ROADMAP, big
operands), so each call here stays well inside its deadline.
"""

import random
import signal

import pytest

from egy.cli import main

CALLS = 600
DEADLINE_S = 10  # per call; a call past it fails the test

SHORT = ["11/24", "1/2", "1", "3", "5/4", "9/25", "1/3", "23/60", "7/10", "2/7", "1/1000",
         "3/4", "38/36", "1003/3000"]
MALFORMED = ["0", "0/5", "-1/2", "-3", "1/0", "abc", "", "1/", "/3", "2.5", "1e3", "+1/3",
             " 7/9 ", "1/-3", "--1", "1/2/3", "0x10", "½", "nan", "inf"]
BAD_INTS = ["-7", "-1", "0", "x", "1.5", ""]
HUGE_INTS = ["9" * 60, "1" + "0" * 5000]  # only where a budget or a limit rejects them
MODES = ["paper", "direct", "exact", "bogus"]


def _long(rng):
    """A rational of hundreds to thousands of digits."""
    k = rng.choice((60, 300, 2000, 6000))
    return rng.choice(("1/1" + "0" * k, "1" + "0" * k + "/3" + "0" * k + "1", "9" * k,
                       "1/" + "7" * k))


def _rational(rng):
    pick = rng.random()
    if pick < 0.65:
        return rng.choice(SHORT), True
    if pick < 0.88:
        return rng.choice(MALFORMED), True
    return _long(rng), False


def _int(rng, lo, hi, huge=True):
    """Mostly an int in [lo, hi], sometimes a bad one, or a huge one if allowed;
    counts and bit sizes are loop bounds outside the budget, so never huge."""
    if rng.random() < 0.05:
        return rng.choice(BAD_INTS + HUGE_INTS if huge else BAD_INTS)
    return str(rng.randrange(lo, hi + 1))


def _command(rng):
    """One subcommand with its arguments; levels stay low for long operands."""
    name = rng.choice(("greedy", "best", "cell", "cells", "regular", "chain", "lemma1",
                       "nongreedy", "decay", "sample"))
    if name in ("greedy", "best", "cell", "regular"):
        x, short = _rational(rng)
        return [name, x, _int(rng, -1, 13 if short else 2)]
    if name == "cells":
        (a, short_a), (b, short_b) = _rational(rng), _rational(rng)
        argv = [name, a, b, _int(rng, -1, 4 if short_a and short_b else 1)]
        return argv + ["--max-cells", _int(rng, 0, 20, False)] if rng.random() < 0.7 else argv
    if name == "chain":
        x, short = _rational(rng)
        top = 6 if short else 2
        return [name, x, _int(rng, -1, top), _int(rng, -1, top + 1)]
    if name == "lemma1":
        argv = [name, _int(rng, -2, 3000)]
        return argv + ["--mode", rng.choice(MODES)] if rng.random() < 0.8 else argv
    if name == "nongreedy":
        return [name, _int(rng, -2, 3000)]
    if name == "decay":
        q, (r, _) = rng.choice(("1/3", "11/24")), _rational(rng)
        argv = [name, q, r, _int(rng, -1, 40), "--imax", _int(rng, -1, 10**7)]
        return argv + ["--slice-bound", rng.choice(("lemma", "exact", "none"))] if rng.random() < 0.5 else argv
    return [name, _int(rng, -1, 4), _int(rng, -1, 6), "--count", _int(rng, 0, 4, False),
            "--seed", _int(rng, -5, 10**6), "--bits", _int(rng, -1, 48, False)]


def _flags(rng):
    """Global flags, each with its value, a few of them invalid.  The budget
    is always given: the default of 10^7 units lets one certificate run for
    minutes."""
    flags = [["--node-budget", str(int(30_000 ** rng.random())) if rng.random() < 0.95
              else rng.choice(("0", "-1", "x", "1.5", ""))]]
    for flag in ("--json", "--csv"):
        if rng.random() < 0.2:
            flags.append([flag])
    if rng.random() < 0.3:
        flags.append(["--threads", rng.choice(("1", "2", "8", "1", "0", "x"))])
    rng.shuffle(flags)
    return flags


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline


def test_cli_fuzz(capsys):
    rng = random.Random(0xC11)
    previous = signal.signal(signal.SIGALRM, _alarm)
    codes = {0: 0, 2: 0, 3: 0}
    try:
        for _ in range(CALLS):
            command, flags = _command(rng), _flags(rng)
            cut = rng.randrange(len(flags) + 1)  # flags before and after the subcommand
            argv = sum(flags[:cut], []) + command + sum(flags[cut:], [])
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
                out, err = capsys.readouterr()
                assert code == 2 and out == "", argv
                assert err.startswith("usage: ") and ": error: " in err.splitlines()[-1], argv
            except Exception as exc:  # escaped main, or ran past the deadline
                pytest.fail(f"{argv} raised {exc!r}")
            else:
                out, err = capsys.readouterr()
                assert code in (0, 2, 3), argv
                if code == 0:
                    assert out, argv
                else:
                    assert err.startswith("error:") and out == "", argv
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            codes[code] += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert all(count >= 30 for count in codes.values()), codes

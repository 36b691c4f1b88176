import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from egy.cli import _build_parser, main


def run(capsys, *argv):
    limit = sys.get_int_max_str_digits()
    code = main(list(argv))
    assert sys.get_int_max_str_digits() == limit  # main changes no interpreter state
    out, err = capsys.readouterr()
    return code, out, err


def test_best_json(capsys):
    code, out, _ = run(capsys, "best", "11/24", "2")
    assert code == 0
    assert json.loads(out) == {"value": "9/20", "rep": [4, 5]}


def test_greedy_json(capsys):
    code, out, _ = run(capsys, "greedy", "1/2", "1")
    assert code == 0
    assert json.loads(out)["rep"] == [3]


def test_cell_json(capsys):
    code, out, _ = run(capsys, "cell", "1", "1")
    assert code == 0
    report = json.loads(out)
    assert report["lower"] == "1/2"
    assert report["upper"] == "1"
    assert report["best_rep"] == [2]


def test_unbounded_cell(capsys):
    code, out, _ = run(capsys, "cell", "5", "2")
    assert code == 0
    assert json.loads(out)["upper"] == "+inf"


def test_cells_csv(capsys):
    code, out, _ = run(capsys, "--csv", "cells", "3/4", "1", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,lower,upper,length,best_rep"
    assert lines[1] == "1,3/4,1,1/4,2"


def test_csv_builds_no_json_report(capsys, monkeypatch):
    # under --csv only the CSV is built: no per-cell dict, no sample dict
    from egy import cli
    from egy.measure import SampleReport

    def unused(*args):
        raise AssertionError("JSON report built under --csv")

    monkeypatch.setattr(cli, "_cell_dict", unused)
    monkeypatch.setattr(SampleReport, "to_dict", unused)
    code, out, _ = run(capsys, "--csv", "cells", "1/3", "1/2", "2", "--max-cells", "3")
    assert code == 0 and out.startswith("level,lower,upper,length,best_rep\n2,10/21,1/2,1/42,3 7\n")
    code, out, _ = run(capsys, "sample", "1", "2", "--count", "5", "--csv")
    assert code == 0 and out.startswith("x,verdict,failure_level\n")


def test_regular(capsys):
    code, out, _ = run(capsys, "regular", "1/2", "1")
    assert code == 0
    assert json.loads(out) == {"value": "1/2"}


def test_chain(capsys):
    code, out, _ = run(capsys, "chain", "1", "0", "4")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["diffs"] == ["1/2", "1/3", "1/7", "1/43"]


def test_lemma1_report(capsys):
    code, out, _ = run(capsys, "lemma1", "50", "--mode", "exact")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["i"] == 50


def test_nongreedy(capsys):
    code, out, _ = run(capsys, "nongreedy", "10")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"i", "measure", "interval_length", "ratio"}


def test_decay(capsys):
    code, out, _ = run(capsys, "decay", "1/3", "1003/3000", "31", "--imax", "1000000")
    assert code == 0
    report = json.loads(out)
    assert report["i0"] == 1001


def test_decay_rejects_imax_below_one(capsys):
    code, out, err = run(capsys, "decay", "1/3", "1/2", "2", "--imax", "-5")
    assert code == 2
    assert out == ""
    assert "i_max >= 1" in err


@pytest.mark.parametrize("sign", ["", "-"])
def test_decay_cell_errors_print_under_default_digit_limit(capsys, sign):
    # a level of 5001 digits: bounded cells of level t are no longer than
    # 1/(t(t+1)), and levels below 1 are rejected
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "decay", "1/3", "1/2", sign + "9" * 5001, "--imax", "10")
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 2 and out == ""
    if sign:
        assert err.startswith("error: cell level must be >= 1, got -9999")
    else:
        assert err.startswith("error: bounded level-9999") and "cell longer than 1/9999" in err


def test_sample_deterministic(capsys):
    code1, out1, _ = run(capsys, "sample", "1", "2", "--count", "20", "--seed", "5")
    code2, out2, _ = run(capsys, "--threads", "4", "sample", "1", "2", "--count", "20", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2  # --threads must never change output


def test_invalid_input_exit_2(capsys):
    code, out, err = run(capsys, "best", "0", "2")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("argv", ["chain 11/24 0 13", "sample 2 13 --count 3 --node-budget 1000"],
                         ids=lambda argv: argv.split()[0])
def test_level_past_the_term_limit_exits_2_before_any_search(capsys, argv):
    # t is checked first: the chain would run out of budget at level 6
    # (exit 3), and the sample would report its draws' verdicts (exit 0)
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert "t=13 exceeds the term limit 12" in err


def test_budget_exhausted_exit_3(capsys):
    code, out, err = run(capsys, "--node-budget", "2", "best", "11/24", "3")
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_fail_fast_message_is_short(capsys):
    # the bound passes 2^16000 units, and the message prints it as a power of
    # two under the default int-to-str digit limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "best", "1/4294967296", "11", "--node-budget", "30000")
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 3 and out == ""
    assert len(err.encode()) < 300 and "needs at least 2^" in err


CERTIFICATE_COMMANDS = [
    ("lemma1", "1000", "--mode", "paper"),
    ("lemma1", "1000", "--mode", "direct"),
    ("lemma1", "1000", "--mode", "exact"),
    ("nongreedy", "1000"),
    ("decay", "1/3", "23/60", "2", "--imax", "26", "--slice-bound", "exact"),
]


@pytest.mark.parametrize("argv", CERTIFICATE_COMMANDS, ids=" ".join)
def test_certificate_budget_exhausted_exit_3(capsys, argv):
    code, out, err = run(capsys, "--node-budget", "10", *argv)
    assert code == 3
    assert out == ""
    assert "needs at least" in err and "10 left" in err


@pytest.mark.parametrize("argv", [("nongreedy", "100000"), ("lemma1", "100000", "--mode", "direct")],
                         ids=" ".join)
def test_huge_certificate_exits_3_fast(argv):
    # about 10^10 competitor pairs, or 10^9 terms, against the default budget
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "egy", *argv],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and "needs at least" in proc.stderr


def test_cell_over_budget_exits_3_before_its_min_above_searches(capsys):
    # the cell's right endpoint takes 321,850 units of min-above search,
    # counted before the first one is spent
    code, out, err = run(capsys, "cell", "1/10", "4", "--node-budget", "300000")
    assert code == 3
    assert out == ""
    assert "needs at least" in err and "300000 left" in err


def test_greedy_with_long_denominators_is_fast():
    # 3.7 MB of output, with denominators of up to 2 million bits
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "egy", "greedy", "1/1" + "0" * 300, "12"],
                          capture_output=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b'{"rep": [1' + b"0" * 299 + b"1, ")  # its bytes are pinned below


def test_bad_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", "1", "2"])
    assert info.value.code == 2


def test_json_csv_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--json", "--csv", "best", "1/2", "1"])
    assert info.value.code == 2


README = Path(__file__).resolve().parent.parent / "README.md"
# README examples that take minutes: an exact sum at i = 1000, 1000 samples
SLOW_COMMANDS = ("nongreedy", "sample")


def _readme_examples():
    """(argv, expected JSON or "") for every line of the README's CLI block."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv:
            assert argv[0] == "egy"
            examples.append((argv[1:], comment.strip()))
    return examples


def test_readme_examples(capsys):
    examples = _readme_examples()
    assert len(examples) == 10
    parser = _build_parser()
    for argv, expected in examples:
        args = parser.parse_args(argv)  # exits 2 on an unrecognized flag
        if args.command in SLOW_COMMANDS:
            continue
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if expected:
            assert json.loads(out) == json.loads(expected)
        if args.csv:
            assert out.startswith("level,lower,upper,length,best_rep\n")


def test_python_dash_m_egy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "egy", "best", "11/24", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"value": "9/20", "rep": [4, 5]}


def test_global_flags_on_either_side(capsys):
    window = ["cells", "1/3", "1/2", "2", "--max-cells", "3"]
    before = run(capsys, "--csv", *window)
    after = run(capsys, *window, "--csv")
    assert before == after and before[0] == 0 and before[1].startswith("level,")
    assert run(capsys, "--threads", "2", *window) == run(capsys, *window, "--threads", "2")
    # a flag given only before the subcommand is not reset by the subcommand
    assert run(capsys, "--node-budget", "5", "best", "11/24", "3")[0] == 3
    assert run(capsys, "best", "11/24", "3", "--node-budget", "5")[0] == 3
    for flags in (["--json", *window, "--csv"], [*window, "--json", "--csv"]):
        with pytest.raises(SystemExit) as exc:
            main(flags)
        assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([*window, "--threads", "0"])


# sha256 of stdout, recorded before the certificates moved onto integer
# pairs (the certificate commands print rationals of up to 95,000
# characters), for sample before searches raised on over-budget subtrees,
# for regular, cell and the lemma decay bound before the regular numbers
# took the closed-form Sylvester tail, and for the last three before every
# int was printed and parsed by egy.rational (10^k stands for the digits;
# those commands read and print ints past the 4300-digit int-to-str limit)
GOLDEN_STDOUT = [
    (("lemma1", "1000", "--mode", "paper"),
     "535d46e9de65e0d0c68896c29e4d25e0cd21fabc0fab3aa3b3ddee658aa449ae"),
    (("lemma1", "300", "--mode", "direct"),
     "693a15a69994edd460274e9ca48b35b8709cad9330b9c8d47ff8323eed2b25e1"),
    (("lemma1", "2048", "--mode", "paper"),
     "e17623e557a27d114c9d87fa0ad9d6751ae7a1911b415d96b4260bb33d58a014"),
    (("lemma1", "400", "--mode", "direct"),
     "48a0378d43311fc4a4202fdc83c9d1494b976d4a71d69823f754e051e5e66665"),
    (("lemma1", "120", "--mode", "exact"),
     "62209908c71e69d333bc678f5b927285e642cca9ccaaebc335cfb2e0492f98c2"),
    (("nongreedy", "120"),
     "a5841e0a267d4674416dcb1df9aa5f6792538dbd8ba8babca0c93b0ffbe421ca"),
    (("decay", "1/3", "23/60", "2", "--imax", "26", "--slice-bound", "exact"),
     "bc7686d6a515bff93262a976cf86467923e565212da056442f386d712dfb0b0e"),
    (("greedy", "11/24", "3"),
     "eb2f9d58c30abb12aabe4e44004ea28976910d12447597b7df7a207398a97b2c"),
    (("sample", "2", "5", "--count", "200", "--seed", "7", "--node-budget", "300000", "--csv"),
     "c0224629571adc431657c40d2189cb0c8ffdc9d8994c69a49455c11024848ca9"),
    (("regular", "9/25", "2"),
     "0c941949feba29ce76bc47a804fe1171a22366e1d654cf6115e033ce079b5aa8"),
    (("regular", "1/2", "12"),
     "0074ccaa5d5bd78122e8d318f20c0d8d0d5b1051dd7255959ff1b12af2f0e70a"),
    # the big-operand path: the value's denominator has 1.36M bits
    (("regular", "1/10^100", "12"),
     "0bd1f80202243de9edacbbf6a108be918c89fb342f91b50b50f93e9ca9c7a646"),
    (("cell", "11/24", "2"),
     "9f8b71a5b4b1021d788de2c2e7db90c0e77de1c9e215bdcfe6a82c0a42eb8cd0"),
    (("cell", "11/24", "4"),
     "3afd17af1e30fdfee20301032d82aec12ee576ee82e745c669ce1ff0936653af"),
    (("decay", "1/3", "1003/3000", "31", "--imax", "10000000"),
     "67b89231b0e5fa2f9342d9908d032ffd2b1a57d191c6caf004adabab1102a4c0"),
    (("greedy", "1/10^300", "12"),
     "1708227793af2f395e5313e4ff23752718cbe9ed1c2f50b02fbe324356ec5cfe"),
    (("cell", "1/10^5000", "1"),
     "8d0657f902204271cc62152ba5ae4198df42709d2e16a28ab68748f165a65ffa"),
    (("--csv", "cells", "1/10^5000", "3/10^5000", "1", "--max-cells", "3"),
     "bf018fa558b216e0be832af55685e0ad33774fbce61528953c687861b72135f1"),
    # the JSON form of cells, recorded before the CLI stopped building the
    # JSON report under --csv
    (("cells", "1/10^5000", "3/10^5000", "1", "--max-cells", "3"),
     "0544a5adb41af417508c655231e024f1c68836fe5c5d62637529319a55338248"),
    (("cells", "1/3", "1/2", "2", "--max-cells", "3"),
     "4d501ece50e36819d069f7bb4d7bb3a47f038f8149104f927878c0248bd02941"),
    # the JSON form of CI's level-3 and level-4 cells pins, recorded before
    # the window walk stopped copying its endpoints through Fraction()
    (("cells", "1/4", "1/3", "3", "--max-cells", "300"),
     "a8695df60e1964dee1243fd82ca7e985a1fd6ac9e13f7af0d41ab3b3f232e8a0"),
    (("cells", "1/12", "1/11", "4", "--max-cells", "60"),
     "9139ac05240bb66f665ef5db0c1334a60905db87a85fa343ec4c8a19c86c9059"),
    # the README's chain example: passes with diffs 1/2, 1/3, 1/7, 1/43
    (("chain", "1", "0", "4"),
     "a76e35ec7e1b5277712081ae2588ce8aec45130c3f6f66e6d00bdc0563cf2280"),
    # fails at level 2 on 7/60 and still prints the unit diffs 1/221, 1/48621
    (("chain", "5/11", "1", "4"),
     "ab6b2057c3df1ceaf3a5bb2a193a5c77e9ad7ac8c9538a9af5831bf8661aef5d"),
    # 100 pass, 40 fail, 60 undecided
    (("sample", "2", "4", "--count", "200", "--seed", "7", "--node-budget", "3000"),
     "a52d24f217f5334108b86322e5eeec8631403ac815565a54231ea6560c8d914e"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_STDOUT])
def test_golden_stdout_bytes(capsys, argv, digest):
    argv = [re.sub(r"10\^(\d+)", lambda m: "1" + "0" * int(m.group(1)), arg) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest

"""``tests/version_check.py`` under each local Python from 3.10 to 3.13.

``rational._from_reduced`` writes the private slots of ``Fraction``, so a
change of its layout in any supported Python must fail a test here, not
only in CI.  An interpreter is looked for under ``~/.pyenv/versions`` and
then on PATH, and is used only if it runs and reports its version: a
pyenv shim on PATH fails unless a version is selected.  A version with no
working interpreter is skipped.  The checks run in parallel, one process
per version, started together on first use.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import GOLDEN_STDOUT

VERSIONS = ("3.10", "3.11", "3.12", "3.13")
SCRIPT = Path(__file__).resolve().parent / "version_check.py"


def _interpreter(version):
    """A working interpreter of this minor version, or None."""
    pyenv = sorted(Path.home().glob(f".pyenv/versions/{version}.*/bin/python"), reverse=True,
                   key=lambda path: [int(p) for p in path.parent.parent.name.split(".") if p.isdigit()])
    for candidate in [*map(str, pyenv), shutil.which(f"python{version}")]:
        if candidate is None:
            continue
        try:
            proc = subprocess.run([candidate, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == version:
            return candidate
    return None


@pytest.fixture(scope="module")
def checks():
    golden = json.dumps(GOLDEN_STDOUT)
    running = {}
    for version in VERSIONS:
        python = _interpreter(version)
        if python is not None:
            running[version] = subprocess.Popen([python, str(SCRIPT), golden], stdout=subprocess.PIPE,
                                                stderr=subprocess.STDOUT, text=True)
    yield running
    for proc in running.values():
        if proc.poll() is None:
            proc.kill()
        proc.wait()


@pytest.mark.parametrize("version", VERSIONS)
def test_stdlib_check_under_each_local_python(checks, version):
    if version not in checks:
        pytest.skip(f"no working Python {version} here")
    out, _ = checks[version].communicate(timeout=120)
    assert checks[version].returncode == 0, out
    assert out.splitlines()[0].startswith(f"python {version}.")

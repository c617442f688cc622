"""The scripts in tools/oracles/ rebuild the constants that the tests freeze.

A test module that freezes an oracle's constants cites the script in a
comment, "frozen from tools/oracles/<name>.py".  Each script is run, what it
prints is executed, and every constant it prints must equal the constant of
the same name in the module that cites it.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ORACLES = sorted((TESTS.parent / "tools" / "oracles").glob("*.py"))


def citing_module(script):
    cite = f"frozen from tools/oracles/{script.name}"
    [path] = [p for p in sorted(TESTS.glob("test_*.py")) if cite in p.read_text()]
    return importlib.import_module(path.stem)


def test_every_oracle_is_found():
    assert [p.name for p in ORACLES] == ["enum_heightmap.py", "exp_alpha.py", "pyramid_words.py", "series_products.py"]


@pytest.mark.parametrize("script", ORACLES, ids=[p.stem for p in ORACLES])
def test_oracle_prints_the_frozen_constants(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = {}
    exec(proc.stdout, printed)
    names = [name for name in printed if name.isupper()]
    assert names
    module = citing_module(script)
    for name in names:
        assert printed[name] == getattr(module, name), name

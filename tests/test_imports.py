"""The package needs numpy only at run time: scipy serves as a test
oracle and must not come back into the import graph unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_imports_load_no_scipy():
    code = (
        "import sys, mogge, mogge.cli, mogge.dataio\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"

"""Every ``repro`` package imports as the first ``repro`` import of a process.

Entry points import :mod:`repro.core` first, which hides import cycles
that only a script starting from another package runs into (importing
:mod:`repro.prefetch` or :mod:`repro.pipeline` first used to fail with a
partially initialised module).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = ["repro"] + sorted(
    f"repro.{path.parent.name}" for path in (SRC / "repro").glob("*/__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_in_a_fresh_interpreter(package):
    result = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr

"""Every ``repro`` package imports as the first ``repro`` import of a process,
and every ``repro`` module is reached from an entry point.

Entry points import :mod:`repro.core` first, which hides import cycles
that only a script starting from another package runs into (importing
:mod:`repro.prefetch` or :mod:`repro.pipeline` first used to fail with a
partially initialised module).  Code only tests use (reference oracles,
the chaos proxy) lives in ``tests/``, so a module no entry point reaches
does not belong in ``src/``.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.artifacts import import_closure

SRC = Path(repro.__file__).resolve().parent.parent
PACKAGE = SRC / "repro"

PACKAGES = ["repro"] + sorted(
    f"repro.{path.parent.name}" for path in PACKAGE.glob("*/__init__.py")
)


def _module_name(path: Path) -> str:
    return ".".join(("repro",) + path.relative_to(PACKAGE).with_suffix("").parts)


def _entry_modules() -> list[str]:
    """The ``[project.scripts]`` modules, :mod:`repro.experiments` and every
    ``__main__`` a ``python -m`` run starts from."""
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return (
        re.findall(r'=\s*"([\w.]+):', scripts)
        + ["repro.experiments"]
        + [_module_name(path) for path in PACKAGE.rglob("__main__.py")]
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


def test_every_module_is_reached_from_an_entry_point():
    entries = _entry_modules()
    assert "repro.experiments.runner" in entries and len(entries) > 3
    reached = set()
    for entry in entries:
        reached |= set(import_closure(entry))
    modules = {
        _module_name(path)
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    }
    assert sorted(modules - reached) == []


def test_the_paper_run_and_the_service_do_not_load_the_sweeps():
    # The pool helpers live in repro.core.pool; repro.core.sweep serves
    # ccrp-sweep only.
    code = (
        "import sys, repro.experiments.runner, repro.tools.serve, "
        "repro.service.server; "
        "print('repro.core.sweep' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"

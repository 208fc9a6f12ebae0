"""Shared test configuration.

The artifact cache is pointed at a per-session temporary directory so
test runs are hermetic: they never read stale artifacts from (or litter)
the developer's real ``~/.cache/ccrp-repro``, while still exercising the
disk-cache code paths exactly as production does.
"""

from __future__ import annotations

import os
import shutil

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    previous = os.environ.get("CCRP_CACHE_DIR")
    os.environ["CCRP_CACHE_DIR"] = str(tmp_path_factory.mktemp("ccrp-cache"))
    yield
    if previous is None:
        os.environ.pop("CCRP_CACHE_DIR", None)
    else:
        os.environ["CCRP_CACHE_DIR"] = previous


@pytest.fixture
def edit_source(tmp_path, monkeypatch):
    """Key the artifact store on a copy of ``repro``; returns ``edit(path)``.

    ``edit("machine/executor.py")`` appends a comment to that file of the
    copy, as a developer's edit would, and drops the memoised code
    digests so the next key sees it.  The running code is unchanged.
    """
    from repro.core import artifacts

    copy = tmp_path / "edited-source" / "repro"
    shutil.copytree(
        artifacts._PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    monkeypatch.setattr(artifacts, "_PACKAGE", copy)

    def edit(relative: str) -> None:
        with open(copy / relative, "a") as handle:
            handle.write("\n# edited\n")
        artifacts._code_digests.cache_clear()

    yield edit
    artifacts._code_digests.cache_clear()

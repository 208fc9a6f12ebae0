"""Output gates: a timing is only reported for outputs that are right.

Paper experiments are checked byte for byte against ``results/``; the
experiments without a file there are pinned by SHA-256 digests kept in
``digests.json`` beside this module.  Service responses are checked
against the direct library call on the same input.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

SUFFIXES = (".json", ".txt")


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def check_experiments(out_dir: Path, names, results_dir: Path, digests: dict[str, str]) -> dict[str, list[str]]:
    """``{experiment: [problems]}`` for every experiment whose exported files are wrong."""
    failures: dict[str, list[str]] = {}
    for name in names:
        for suffix in SUFFIXES:
            file_name = f"{name}{suffix}"
            produced = out_dir / file_name
            reference = results_dir / file_name
            if not produced.is_file():
                problem = "not written"
            elif reference.is_file():
                problem = None if produced.read_bytes() == reference.read_bytes() else f"differs from results/{file_name}"
            elif file_name in digests:
                actual = hashlib.sha256(produced.read_bytes()).hexdigest()
                problem = None if actual == digests[file_name] else f"sha256 {actual[:12]} is not the pinned {digests[file_name][:12]}"
            else:
                problem = "no reference file and no pinned digest"
            if problem:
                failures.setdefault(name, []).append(f"{file_name}: {problem}")
    return failures


def check_same(first: Path, second: Path, names) -> dict[str, list[str]]:
    """``{experiment: [problems]}`` where two runs exported different bytes."""
    failures: dict[str, list[str]] = {}
    for name in names:
        for suffix in SUFFIXES:
            file_name = f"{name}{suffix}"
            a, b = first / file_name, second / file_name
            if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                failures.setdefault(name, []).append(f"{file_name}: cold and warm outputs differ")
    return failures


def canonical_response(result: dict, payload: bytes) -> bytes:
    """The bytes a response is compared on: canonical JSON of the result, then the payload."""
    return json.dumps(result, sort_keys=True, separators=(",", ":")).encode() + b"\0" + bytes(payload)

"""Content-addressed on-disk cache for expensive simulation artifacts.

A :class:`ProgramStudy` is built from costly pieces — the execution
trace, the compressed image, per-cache-size miss streams, replays — and
each is a pure function of a small key (workload, program fingerprint,
Huffman-code fingerprint, block alignment, instruction cap, cache
geometry) and of the code that computes it.  They are computed once and
memoised on disk, so a second process — or a ``--jobs N`` worker —
finds them already materialised.

One rule decides when an entry is stale.  :data:`KINDS` maps every
stored kind to the root module of the code that computes it, and every
key of the kind folds in the digest of that root's static import
closure (:func:`code_digest`): an edit to any module the root can reach
rebuilds the kind, an edit elsewhere does not.  A kind computed from
another stored value passes that value's full :func:`key` as a key
part, so it is rebuilt whenever its input is.  A kind missing from the
table is refused (:class:`~repro.errors.ConfigurationError`).

Layout: ``<cache root>/<kind>/<key>.pkl``: a 32-byte SHA-256 of the
pickle that follows it, written atomically (temp file +
``os.replace``).  The digest is computed while the pickle streams out
and again while it streams back in, and a value whose bytes do not
match is never returned: a torn write or a flipped bit on disk is
evicted (``artifacts.evict``) and recomputed, never used.
Builds are **single-flight** across processes: a miss takes an
exclusive ``flock`` on the artifact's ``.lock`` sibling before
computing, and re-checks the disk once the lock arrives — so N cold
workers asking for the same key produce one build and N-1 cheap loads
(``artifacts.coalesced``), not N duplicate simulations.  Where
``fcntl`` is unavailable the old race remains and is still safe: last
writer wins with identical bytes-for-key content.

Escape hatches:

* ``CCRP_CACHE_DIR`` — relocate the cache root (default
  ``~/.cache/ccrp-repro``);
* ``CCRP_NO_CACHE=1`` or :func:`set_cache_enabled` (the CLI's
  ``--no-cache``) — bypass the disk entirely.

This module also owns the bounded in-memory **study cache** behind
:func:`repro.core.study.compare`, replacing the old module-level dict
that keyed only on ``(workload, block_alignment)`` — ignoring the
Huffman code and instruction cap — and grew without bound.  The new key
is complete, the cache is LRU-bounded, and :func:`clear` resets it for
tests.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import sys
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

try:  # POSIX only; on other platforms builders race (atomic store, last wins)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.core.metrics import METRICS
from repro.errors import ConfigurationError

#: Environment variable relocating the on-disk cache root.
ENV_CACHE_DIR = "CCRP_CACHE_DIR"

#: Environment variable disabling the on-disk cache ("1", "true", "yes").
ENV_NO_CACHE = "CCRP_NO_CACHE"

#: Every stored kind and the root module of the code that computes it.
KINDS: dict[str, str] = {
    "superops": "repro.machine.executor",
    "assembly": "repro.workloads.suite",
    "trace": "repro.workloads.suite",
    "image": "repro.ccrp.compressor",
    "miss-stream": "repro.pipeline.frontend",
    "clb-curve": "repro.ccrp.stackdist",
    "pipeline-replay": "repro.pipeline.timeline",
    "prefetch-replay": "repro.prefetch.timeline",
    "service-response": "repro.service.workers",
}

#: Studies kept by the in-memory LRU used by :func:`get_study`.
MAX_CACHED_STUDIES = 16

_TRUTHY = {"1", "true", "yes", "on"}

#: Process-wide override; ``None`` defers to ``CCRP_NO_CACHE``.
_enabled_override: bool | None = None


def set_cache_enabled(enabled: bool | None) -> None:
    """Force the disk cache on/off; ``None`` restores env-var control."""
    global _enabled_override
    _enabled_override = enabled


def cache_enabled() -> bool:
    """Whether artifact loads/stores touch the disk right now."""
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get(ENV_NO_CACHE, "").strip().lower() not in _TRUTHY


@contextmanager
def cache_disabled():
    """Bypass the disk cache inside the block, restoring the prior state."""
    global _enabled_override
    previous = _enabled_override
    _enabled_override = False
    try:
        yield
    finally:
        _enabled_override = previous


def cache_root() -> Path:
    """Resolved cache root (honours ``CCRP_CACHE_DIR`` at call time)."""
    env = os.environ.get(ENV_CACHE_DIR, "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ccrp-repro"


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def fingerprint_bytes(data: bytes) -> str:
    """Short stable content fingerprint (first 16 hex chars of SHA-256)."""
    return hashlib.sha256(data).hexdigest()[:16]


def code_fingerprint(code) -> str:
    """Fingerprint of a canonical Huffman code.

    Canonical codes are fully determined by their 256 code lengths, so
    hashing the length vector identifies the code.
    """
    return fingerprint_bytes(bytes(code.lengths))


def program_fingerprint(program) -> str:
    """Fingerprint of everything an execution starts from.

    Text and data bytes, both load addresses and the entry point of an
    :class:`~repro.isa.assembler.AssembledProgram`.
    """
    layout = f"{program.text_base}:{program.data_base}:{program.entry}:{len(program.text)}"
    hasher = hashlib.sha256(layout.encode())
    hasher.update(program.text)
    hasher.update(program.data)
    return hasher.hexdigest()[:16]


# ----------------------------------------------------------------------
# Code digests: the static import closure of each kind's root
# ----------------------------------------------------------------------

#: The ``repro`` package directory the closures are scanned in.
_PACKAGE = Path(__file__).resolve().parent.parent

#: Hashed for its bytes, but only its module-level imports are followed:
#: the lazy imports of :func:`get_study` would put all of
#: :mod:`repro.core.study` into every key.
_LEAF = "repro.core.artifacts"

_IMPORT = re.compile(
    rb"^([ \t]*)(?:from[ \t]+(repro[\w.]*)[ \t]+import[ \t]+(\([^)]*\)|[^\n#]*)"
    rb"|import[ \t]+(repro[\w.]*))",
    re.MULTILINE,
)


def _module_file(package: Path, name: str) -> Path | None:
    base = package.joinpath(*name.split(".")[1:])
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _imports(package: Path, name: str, source: bytes) -> list[str]:
    """The ``repro`` modules one module's ``import`` lines name."""
    found = []
    for indent, base, names, plain in _IMPORT.findall(source):
        if indent and name == _LEAF:
            continue
        if plain:
            found.append(plain.decode())
            continue
        base = base.decode()
        names = re.sub(rb"#[^\n]*", b"", names)
        submodules = [
            f"{base}.{item.decode()}"
            for item in re.findall(rb"(\w+)(?:\s+as\s+\w+)?", names)
        ]
        present = [sub for sub in submodules if _module_file(package, sub)]
        found.extend(present)
        if len(present) < len(submodules):
            found.append(base)  # a name defined in ``base`` itself
    return found


def import_closure(root: str) -> dict[str, bytes]:
    """SHA-256 of every ``repro`` module ``root`` can import, by name.

    A regex scan of ``import`` lines at any indentation (function-level
    imports count), following each ``from package import name`` to the
    submodule when one exists and to the package's ``__init__``
    otherwise.  Parent packages a dotted import runs are not part of it.
    """
    return _closure(_PACKAGE, root, {})


def _closure(package: Path, root: str, scanned: dict) -> dict[str, bytes]:
    closure: dict[str, bytes] = {}
    pending = [root]
    while pending:
        name = pending.pop()
        if name in closure:
            continue
        if name not in scanned:
            path = _module_file(package, name)
            if path is None:
                scanned[name] = None
            else:
                source = path.read_bytes()
                scanned[name] = (
                    hashlib.sha256(source).digest(),
                    _imports(package, name, source),
                )
        if scanned[name] is not None:
            closure[name], imports = scanned[name]
            pending.extend(imports)
    return closure


@lru_cache(maxsize=None)
def _code_digests(package: Path) -> dict[str, str]:
    scanned: dict = {}
    digests = {}
    for root in set(KINDS.values()):
        hasher = hashlib.sha256(
            f"python{sys.version_info[0]}.{sys.version_info[1]}".encode()
        )
        for name, digest in sorted(_closure(package, root, scanned).items()):
            hasher.update(name.encode() + b"\0" + digest)
        digests[root] = hasher.hexdigest()[:16]
    return digests


def code_digest(kind: str) -> str:
    """Digest of the code that computes ``kind`` (once per process).

    Hashes the bytes of every module in the import closure of the kind's
    root (:func:`import_closure`) and the interpreter's major.minor
    version (``random`` sequences are only promised stable within one).
    """
    root = KINDS.get(kind)
    if root is None:
        raise ConfigurationError(
            f"unknown artifact kind {kind!r}; stored kinds: {sorted(KINDS)}"
        )
    return _code_digests(_PACKAGE)[root]


def key(kind: str, *key_parts) -> str:
    """The full key of one artifact: its kind, code digest and parts.

    A kind computed from another stored value passes that value's key
    as one of its parts, so the chain rebuilds from the first stale link.
    """
    material = "\x1f".join([kind, code_digest(kind), *map(str, key_parts)])
    return hashlib.sha256(material.encode()).hexdigest()


# ----------------------------------------------------------------------
# The on-disk cache
# ----------------------------------------------------------------------

#: Bytes of the SHA-256 header in front of every stored pickle.
_HEADER = 32


class _HashingWriter:
    """File wrapper hashing what :func:`pickle.dump` streams through it."""

    def __init__(self, handle) -> None:
        self.handle = handle
        self.hasher = hashlib.sha256()

    def write(self, data) -> int:
        self.hasher.update(data)
        return self.handle.write(data)


class _HashingReader:
    """File wrapper hashing what :func:`pickle.load` reads through it."""

    def __init__(self, handle) -> None:
        self.handle = handle
        self.hasher = hashlib.sha256()

    def read(self, size: int = -1) -> bytes:
        data = self.handle.read(size)
        self.hasher.update(data)
        return data

    def readinto(self, buffer) -> int:
        count = self.handle.readinto(buffer)
        self.hasher.update(memoryview(buffer)[:count])
        return count

    def readline(self) -> bytes:
        line = self.handle.readline()
        self.hasher.update(line)
        return line


class ArtifactCache:
    """Content-addressed pickle store under one root directory.

    Args:
        root: Cache root; ``None`` resolves :func:`cache_root` per call,
            so tests can repoint ``CCRP_CACHE_DIR`` between operations.
    """

    def __init__(self, root: Path | None = None) -> None:
        self._root = Path(root) if root is not None else None

    @property
    def root(self) -> Path:
        return self._root if self._root is not None else cache_root()

    def path_for(self, kind: str, *key_parts) -> Path:
        """Where the artifact for this key lives (existing or not)."""
        return self.root / kind / f"{key(kind, *key_parts)}.pkl"

    def load(self, kind: str, *key_parts) -> tuple[bool, Any]:
        """``(found, value)`` for the key; corrupt entries are evicted."""
        if not cache_enabled():
            return False, None
        path = self.path_for(kind, *key_parts)
        try:
            with path.open("rb") as handle:
                stored = handle.read(_HEADER)
                reader = _HashingReader(handle)
                value = pickle.load(reader)
                reader.read()  # bytes after the pickle's end count too
                if reader.hasher.digest() != stored:
                    raise ValueError(f"{path} does not match its digest")
        except FileNotFoundError:
            return False, None
        except Exception:
            # A torn write, a flipped bit or an unreadable pickle: drop
            # it and recompute.  Counted separately from plain misses so
            # on-disk corruption is visible in --metrics dumps.
            METRICS.count("artifacts.evict")
            path.unlink(missing_ok=True)
            return False, None
        return True, value

    def store(self, kind: str, value: Any, *key_parts) -> Path | None:
        """Atomically persist ``value``; returns the path (or ``None``)."""
        if not cache_enabled():
            return None
        path = self.path_for(kind, *key_parts)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(bytes(_HEADER))
                writer = _HashingWriter(handle)
                pickle.dump(value, writer, protocol=pickle.HIGHEST_PROTOCOL)
                handle.seek(0)
                handle.write(writer.hasher.digest())
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        METRICS.count("artifacts.store")
        return path

    @contextmanager
    def _build_lock(self, path: Path):
        """Cross-process single-flight guard for one artifact key.

        Holds an exclusive ``flock`` on a sibling ``.lock`` file while the
        artifact is computed, so N concurrent builders of the same key
        wait on one winner instead of all re-simulating.  Lock files are
        tiny and persistent; they are never read, only locked.  Without
        ``fcntl`` (non-POSIX) this degrades to the old behaviour:
        duplicate builds that race on an atomic, last-writer-wins store.
        """
        if fcntl is None:
            yield
            return
        lock_path = path.with_suffix(".lock")
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        with lock_path.open("ab") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def get_or_compute(self, kind: str, compute: Callable[[], Any], *key_parts) -> Any:
        """Load the artifact, or compute (exactly once per machine) and persist.

        Counts ``artifacts.hit`` / ``artifacts.miss`` / ``artifacts.build``
        so cache behaviour shows up in ``--metrics`` dumps.  A miss takes
        the per-key file lock before computing and re-checks the disk
        under it: a process that lost the build race loads the winner's
        artifact instead of duplicating the work, counted as
        ``artifacts.coalesced``.  With the cache disabled this is just
        ``compute()`` (and counts nothing).
        """
        if not cache_enabled():
            return compute()
        found, value = self.load(kind, *key_parts)
        if found:
            METRICS.count("artifacts.hit")
            return value
        METRICS.count("artifacts.miss")
        with self._build_lock(self.path_for(kind, *key_parts)):
            # Another process may have won the build while we waited.
            found, value = self.load(kind, *key_parts)
            if found:
                METRICS.count("artifacts.coalesced")
                return value
            METRICS.count("artifacts.build")
            value = compute()
            self.store(kind, value, *key_parts)
        return value


#: The cache every :class:`ProgramStudy` goes through.
_CACHE = ArtifactCache()


def get_cache() -> ArtifactCache:
    """The process-wide artifact cache."""
    return _CACHE


# ----------------------------------------------------------------------
# The in-memory study cache (compare()'s backing store)
# ----------------------------------------------------------------------

_STUDIES: OrderedDict[tuple, object] = OrderedDict()


def study_key(
    workload_name: str,
    text_fingerprint: str,
    code,
    block_alignment: int,
    max_instructions: int,
) -> tuple:
    """The complete identity of one :class:`ProgramStudy`."""
    return (
        workload_name,
        text_fingerprint,
        code_fingerprint(code),
        block_alignment,
        max_instructions,
    )


def get_study(
    workload,
    code=None,
    block_alignment: int = 1,
    max_instructions: int = 4_000_000,
):
    """A (possibly shared) :class:`ProgramStudy` for these parameters.

    Suite workloads named by string share a bounded process-wide LRU;
    ad-hoc :class:`~repro.workloads.suite.Workload` instances always get
    a fresh study (their artifacts still hit the disk cache).
    """
    from repro.core.standard import standard_code
    from repro.core.study import ProgramStudy
    from repro.workloads.suite import load

    if not isinstance(workload, str):
        return ProgramStudy(
            workload,
            code=code,
            block_alignment=block_alignment,
            max_instructions=max_instructions,
        )
    resolved_code = code if code is not None else standard_code()
    key = study_key(
        workload,
        fingerprint_bytes(load(workload).text),
        resolved_code,
        block_alignment,
        max_instructions,
    )
    study = _STUDIES.get(key)
    if study is not None:
        _STUDIES.move_to_end(key)
        METRICS.count("studies.hit")
        return study
    METRICS.count("studies.miss")
    study = ProgramStudy(
        workload,
        code=resolved_code,
        block_alignment=block_alignment,
        max_instructions=max_instructions,
    )
    _STUDIES[key] = study
    while len(_STUDIES) > MAX_CACHED_STUDIES:
        _STUDIES.popitem(last=False)
    return study


def clear() -> None:
    """Empty the in-memory study cache (tests call this between cases)."""
    _STUDIES.clear()

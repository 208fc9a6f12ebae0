"""Content-addressed on-disk cache for expensive simulation artifacts.

A :class:`ProgramStudy` is built from three costly pieces — the execution
trace, the compressed image, and per-cache-size miss streams.  All of
them are pure functions of a small key (workload name, text-segment
fingerprint, Huffman-code fingerprint, block alignment, instruction cap,
cache geometry), so they are computed once and memoised on disk, keyed by
the SHA-256 of that key.  A second process — or a ``--jobs N`` worker —
finds them already materialised.

Layout: ``<cache root>/<format version>/<kind>/<digest>.pkl``, written
atomically (temp file + ``os.replace``).  Builds are **single-flight**
across processes: a miss takes an exclusive ``flock`` on the artifact's
``.lock`` sibling before computing, and re-checks the disk once the lock
arrives — so N cold workers asking for the same key produce one build
and N-1 cheap loads (``artifacts.coalesced``), not N duplicate
simulations.  Where ``fcntl`` is unavailable the old race remains and is
still safe: last writer wins with identical bytes-for-key content.

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
import sys
import tempfile
import zlib
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

#: Environment variable relocating the on-disk cache root.
ENV_CACHE_DIR = "CCRP_CACHE_DIR"

#: Environment variable disabling the on-disk cache ("1", "true", "yes").
ENV_NO_CACHE = "CCRP_NO_CACHE"

#: Bump to invalidate every artifact when the pickled formats change.
#: 2: ExecutionTrace grew a lazy block-trace backing (superop engine).
#: 3: CompressedImage grew the line_crcs integrity field.
FORMAT_VERSION = 3

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


def source_digest(*packages) -> str:
    """Fingerprint of the Python source of ``packages`` (imported packages).

    Hashes the relative path and bytes of every ``.py`` file under each
    package's directory, plus the interpreter's major.minor version
    (``random`` sequences are only promised stable within one version).
    An artifact keyed on it is rebuilt after any edit to the code that
    computes it, with no version constant to bump by hand.
    """
    hasher = hashlib.sha256(f"python{sys.version_info[0]}.{sys.version_info[1]}".encode())
    for package in packages:
        root = Path(package.__path__[0])
        for path in sorted(root.rglob("*.py")):
            relative = f"{package.__name__}/{path.relative_to(root).as_posix()}"
            hasher.update(b"\0" + relative.encode() + b"\0")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


@lru_cache(maxsize=None)
def repro_source_digest() -> str:
    """:func:`source_digest` of the whole :mod:`repro` package, once per process.

    Keys the replay kinds (``pipeline-replay``, ``prefetch-replay``,
    ``prefetch-exact``), so any code edit rebuilds them.
    """
    import repro

    return source_digest(repro)


def _digest(kind: str, key_parts: tuple) -> str:
    material = "\x1f".join([kind, str(FORMAT_VERSION), *map(str, key_parts)])
    return hashlib.sha256(material.encode()).hexdigest()


# ----------------------------------------------------------------------
# The on-disk cache
# ----------------------------------------------------------------------


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
        return self.root / str(FORMAT_VERSION) / kind / f"{_digest(kind, key_parts)}.pkl"

    def load(self, kind: str, *key_parts) -> tuple[bool, Any]:
        """``(found, value)`` for the key; corrupt entries are evicted."""
        if not cache_enabled():
            return False, None
        path = self.path_for(kind, *key_parts)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            return False, None
        except Exception:
            # A truncated or stale pickle: drop it and recompute.  Counted
            # separately from plain misses so on-disk corruption is visible
            # in --metrics dumps instead of silently masquerading as a miss.
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
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
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
# The durable service response cache
# ----------------------------------------------------------------------

#: Artifact kind holding completed service responses.
SERVICE_RESPONSE_KIND = "service-response"


class ResponseCache:
    """Durable store for completed service responses.

    The compression service keys entries identically to its in-flight
    coalescing key — ``(op, canonical-JSON params, SHA-256(payload))``
    — so a restarted server answers a repeat request byte-identically
    from disk instead of recomputing it.  Each entry carries a CRC-32
    digest of its binary payload, recomputed on every load: an entry
    whose stored bytes no longer match the digest (torn write, disk
    corruption) is evicted and treated as a miss, never served.

    Entries live in the shared :class:`ArtifactCache` (so
    ``CCRP_CACHE_DIR`` / ``CCRP_NO_CACHE`` govern them like every other
    artifact) under the :data:`SERVICE_RESPONSE_KIND` kind.
    """

    def __init__(self, cache: ArtifactCache | None = None) -> None:
        self._cache = cache if cache is not None else get_cache()

    def get(self, key_parts: tuple) -> tuple[dict, bytes, int] | None:
        """``(result, payload, crc32)`` for the key, or ``None``.

        Verifies the stored payload against its recorded CRC-32 before
        returning; a mismatch evicts the entry (``artifacts.evict``)
        and reports a miss so the job is recomputed rather than served
        corrupt.
        """
        found, entry = self._cache.load(SERVICE_RESPONSE_KIND, *key_parts)
        if not found:
            return None
        try:
            result = entry["result"]
            payload = entry["payload"]
            crc = entry["crc32"]
        except (TypeError, KeyError):
            METRICS.count("artifacts.evict")
            self._evict(key_parts)
            return None
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            METRICS.count("artifacts.evict")
            self._evict(key_parts)
            return None
        return result, payload, crc

    def put(self, key_parts: tuple, result: dict, payload: bytes) -> int:
        """Persist one completed response; returns its CRC-32 digest."""
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        self._cache.store(
            SERVICE_RESPONSE_KIND,
            {"result": result, "payload": bytes(payload), "crc32": crc},
            *key_parts,
        )
        return crc

    def _evict(self, key_parts: tuple) -> None:
        self._cache.path_for(SERVICE_RESPONSE_KIND, *key_parts).unlink(
            missing_ok=True
        )


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

"""Compression-as-a-service: an async batch front end over the stack.

The paper's CCRP design separates a slow offline compressor from a fast
demand-driven decompress path — a natural client/server split.  This
package is that split made literal: a long-running asyncio server
(:mod:`repro.service.server`) accepts ``compress``, ``decompress``,
``simulate``, and ``stats`` requests over a small length-prefixed
JSON+binary frame protocol (:mod:`repro.service.protocol`) and fans the
work across a pool of warm-started worker processes
(:mod:`repro.service.workers`) that reuse the artifact cache, the
single-flight build machinery, and the fork start-method plumbing of
:mod:`repro.core.pool`.

Service contract highlights (full spec in ``docs/modeling_notes.md``
sections 14 and 16):

* identical in-flight ``(op, params, payload)`` jobs coalesce onto one
  execution (``service.coalesced``), and completed responses persist in
  a durable CRC-verified cache under the same key
  (``service.cache.hit`` / ``service.cache.miss``) — repeats are
  answered byte-identically, even across a server restart;
* requests may carry a ``deadline_ms`` budget: expired work is refused
  or shed (``service.deadline_exceeded``) instead of computed;
* the client retries transient failures with capped, seed-deterministic
  backoff on fresh connections, and surfaces everything else as typed
  :class:`~repro.errors.ServiceError` values;
* admission is bounded — past ``queue_limit`` pending jobs the server
  answers ``overloaded`` immediately instead of growing memory;
* shutdown drains in-flight work before closing connections; and
* every request is observable through the ``stats`` endpoint
  (per-endpoint counters, queue-depth gauge, p50/p99 latency).

Resilience is tested under fault injection: ``tests/chaos.py`` provides
a seed-deterministic proxy that tears frames, resets connections, delays
traffic, and kills workers on a replayable schedule.
"""

from repro.service.client import ServiceClient, parse_address
from repro.service.protocol import FrameDecoder, encode_frame, read_frame, write_frame
from repro.service.server import CompressionServer
from repro.service.workers import WorkerPool

__all__ = [
    "CompressionServer",
    "FrameDecoder",
    "ServiceClient",
    "WorkerPool",
    "encode_frame",
    "parse_address",
    "read_frame",
    "write_frame",
]

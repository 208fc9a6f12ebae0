"""Exception hierarchy for the CCRP reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class EncodingError(ReproError):
    """An instruction could not be encoded into its binary form."""


class DecodingError(ReproError):
    """A 32-bit word could not be decoded into a known instruction."""


class AssemblerError(ReproError):
    """Assembly source was malformed (bad mnemonic, operand, or label)."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ExecutionError(ReproError):
    """The functional simulator hit an unrecoverable condition."""


class CompressionError(ReproError):
    """A codec was misused or produced an invalid stream."""


class LATError(ReproError):
    """A Line Address Table constraint was violated."""


class ConfigurationError(ReproError):
    """A system configuration parameter is out of its supported range."""


class ProtocolError(ReproError):
    """A service frame violated the wire protocol.

    Raised by :mod:`repro.service.protocol` for a bad magic number or
    version, a length field past the frame limits, a connection closed
    mid-frame, or an unparsable JSON header.  Protocol errors are never
    retried *on the same connection*: the peer's byte stream can no
    longer be trusted, so the connection is closed.  A resilient client
    may reconnect and re-send an idempotent request on a fresh stream
    (:class:`~repro.service.client.ServiceClient` with ``retries > 0``
    does exactly that).
    """


class ServiceError(ReproError):
    """An error response from (or a failed exchange with) the service.

    Attributes:
        code: Machine-readable error code (e.g. ``"overloaded"``,
            ``"bad_request"``, ``"worker_crash"``, ``"shutting_down"``,
            ``"job_failed"``, ``"deadline_exceeded"``, ``"too_large"``,
            ``"timeout"``, ``"unavailable"``, ``"connection_lost"``).
        failure: The serialised :class:`~repro.core.pool.FailureReport`
            dict attached to job failures, when the server captured one.
        op: The request op the client was attempting, when known (set by
            the client's retry layer when it wraps transport errors).
        address: The service address string the client was talking to.
        attempts: How many attempts the client made before giving up.
    """

    def __init__(
        self,
        message: str,
        code: str = "internal",
        failure: dict | None = None,
        op: str | None = None,
        address: str | None = None,
        attempts: int | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.failure = failure
        self.op = op
        self.address = address
        self.attempts = attempts


class IntegrityError(ReproError):
    """A stored line failed its integrity check (corrupted instruction memory).

    Raised by the refill path under the ``strict`` integrity policy when a
    fetched compressed block does not match its per-line CRC.
    """

    def __init__(self, message: str, line_number: int | None = None) -> None:
        super().__init__(message)
        self.line_number = line_number

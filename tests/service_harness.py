"""Shared live-server harness for the service test suites.

Runs a :class:`~repro.service.server.CompressionServer` on a real Unix
socket inside a dedicated event-loop thread, so the blocking
:class:`~repro.service.client.ServiceClient` (and raw sockets) can talk
to it from test code.  Synchronisation is structural, never timed:

* :meth:`LiveService.gate` hands out a named-FIFO rendezvous — the test
  *blocks* on the FIFO until the worker is provably inside the gated
  job, and the worker blocks until the test releases it;
* :meth:`LiveService.wait_stats` polls the ``stats`` endpoint with
  bounded request/response round trips — convergence on observable
  server state, not wall-clock guessing.
"""

from __future__ import annotations

import asyncio
import os
import threading

from repro.service.client import ServiceClient
from repro.service.server import CompressionServer

from chaos import ChaosProxy

#: Round-trip budget for :meth:`LiveService.wait_stats` (not a timer —
#: each attempt is one full stats round trip through the live server).
MAX_STATS_ROUND_TRIPS = 2000


class GateTimeout(AssertionError):
    """A FIFO rendezvous did not complete within its timeout."""


class Gate:
    """One named-FIFO rendezvous between a test and a gated worker job.

    The worker side (``workers._apply_gate``) opens ``ready`` for
    writing — which blocks until :meth:`wait_entered` opens it for
    reading — then blocks reading ``release`` until :meth:`release`
    opens and closes it.  Both directions are pure blocking handshakes.
    """

    def __init__(self, root: str, name: str) -> None:
        self.ready = os.path.join(root, f"{name}.ready")
        self.release = os.path.join(root, f"{name}.release")
        os.mkfifo(self.ready)
        os.mkfifo(self.release)

    @property
    def params(self) -> list[str]:
        """Value for the job's ``_gate`` parameter."""
        return [self.ready, self.release]

    def wait_entered(self, timeout: float = 60.0) -> None:
        """Block until a worker is inside the gated job."""
        # open() on a FIFO has no timeout parameter; do the open in a
        # helper thread and bound the join so a server bug fails the
        # test instead of hanging the suite.
        done = threading.Event()

        def _open() -> None:
            with open(self.ready, "rb"):
                pass
            done.set()

        threading.Thread(target=_open, daemon=True).start()
        if not done.wait(timeout):
            raise GateTimeout(f"no worker entered gate {self.ready}")

    def release_job(self) -> None:
        """Unblock the gated worker job."""
        with open(self.release, "wb"):
            pass


class LiveService:
    """A compression server running on its own event-loop thread."""

    def __init__(self, socket_dir: str, **server_kwargs) -> None:
        self.socket_path = os.path.join(socket_dir, "ccrp.sock")
        self.address = f"unix:{self.socket_path}"
        self._gate_dir = socket_dir
        self._gates = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._shutdown: asyncio.Event | None = None
        self._startup_error: BaseException | None = None
        self.server = CompressionServer(self.address, **server_kwargs)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "LiveService":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._started.wait(120), "server failed to start in time"
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._shutdown = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as error:
                self._startup_error = error
                self._started.set()
                raise
            self._started.set()
            await self._shutdown.wait()

        asyncio.run(main())

    def stop(self, timeout: float = 120.0) -> None:
        """Graceful stop: drain the server, then end the loop thread."""
        if self._loop is None or not self._thread or not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        future.result(timeout)
        self.end_loop(timeout)

    def stop_async(self):
        """Begin a graceful stop; returns the concurrent future."""
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)

    def end_loop(self, timeout: float = 120.0) -> None:
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "LiveService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- client-side helpers -------------------------------------------

    def client(
        self, name: str = "test", timeout: float = 120.0, **client_kwargs
    ) -> ServiceClient:
        return ServiceClient(
            self.address, timeout=timeout, name=name, **client_kwargs
        )

    def gate(self) -> Gate:
        self._gates += 1
        return Gate(self._gate_dir, f"gate{self._gates}")

    def chaos(self, schedule, name: str = "chaos") -> "LiveChaos":
        """A fault-injecting proxy in front of this server."""
        return LiveChaos(
            os.path.join(self._gate_dir, f"{name}.sock"), self.address, schedule
        )

    def wait_stats(self, predicate, what: str = "condition") -> dict:
        """Poll ``stats`` round trips until ``predicate(stats)`` holds.

        Each attempt is a full request/response cycle through the
        server, so progress is bounded by server responsiveness, not by
        sleeps; the attempt budget turns a real deadlock into a test
        failure instead of a hang.
        """
        with self.client(name="stats-poller") as poller:
            for _ in range(MAX_STATS_ROUND_TRIPS):
                stats = poller.stats()
                if predicate(stats):
                    return stats
        raise AssertionError(
            f"server never reached {what} within "
            f"{MAX_STATS_ROUND_TRIPS} stats round trips; last: "
            f"{stats['counters']} / {stats['server']}"
        )


class LiveChaos:
    """A :class:`~chaos.ChaosProxy` on its own loop thread.

    Clients connect to :attr:`address`; the proxy relays to the live
    server, applying the schedule's faults.  The event log
    (``live_chaos.proxy.events`` / ``transcript()``) records exactly
    which faults fired, for two-run determinism assertions.
    """

    def __init__(self, listen_path: str, upstream: str, schedule) -> None:
        self.proxy = ChaosProxy(listen_path, upstream, schedule)
        self.address = self.proxy.address
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._shutdown: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    def start(self) -> "LiveChaos":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._started.wait(60), "chaos proxy failed to start in time"
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._shutdown = asyncio.Event()
            try:
                await self.proxy.start()
            except BaseException as error:
                self._startup_error = error
                self._started.set()
                raise
            self._started.set()
            await self._shutdown.wait()
            await self.proxy.stop()

        asyncio.run(main())

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "LiveChaos":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def client(self, name: str = "chaos-test", **client_kwargs) -> ServiceClient:
        return ServiceClient(self.address, name=name, **client_kwargs)

    def transcript(self) -> tuple:
        return self.proxy.transcript()

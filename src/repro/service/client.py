"""Client plumbing for the simulation service.

:class:`ServiceClient` keeps one connection to the daemon and sends
every request over it, one exchange at a time; if a kept connection
turns out dead (the daemon restarted, or closed it), the request is
resent once on a fresh one.  Every verb is safe to resend: reads have no
side effects, ``cancel`` is idempotent and ``submit`` coalesces by
content id.  The client raises the daemon's typed
:class:`~repro.service.protocol.ServiceError` on error payloads and
offers the small set of verbs the CLI commands (``repro
submit|status|results|cancel``) and tests compose: ``submit``,
``status``, ``events``, ``stream_events``, ``results``, ``cancel``,
``ping`` and ``wait_done``.  ``stream_events`` uses a connection of its
own.  Close the client (or use it as a context manager) when done.
"""

from __future__ import annotations

import socket
import threading
import time
from collections.abc import Iterator
from pathlib import Path
from typing import Any, BinaryIO

from repro.errors import UsageError
from repro.service.daemon import TERMINAL
from repro.service.protocol import ServiceError, decode_line, encode_line

#: Default seconds between ``wait_done`` status polls.
DEFAULT_POLL = 0.2

#: Default per-request socket timeout in seconds.
DEFAULT_TIMEOUT = 30.0


class ServiceClient:
    """One daemon address plus the request verbs against it."""

    def __init__(
        self,
        socket_path: str | Path | None = None,
        port: int | None = None,
        host: str = "127.0.0.1",
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise UsageError(
                "client needs exactly one of socket path or port"
            )
        self.socket_path = Path(socket_path).expanduser() if socket_path else None
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        #: The kept connection and its line reader, opened on first use.
        self._kept: tuple[socket.socket, BinaryIO] | None = None

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        try:
            if self.socket_path is not None:
                conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                conn.settimeout(self.timeout)
                try:
                    conn.connect(str(self.socket_path))
                except OSError:
                    conn.close()
                    raise
            else:
                conn = socket.create_connection(
                    (self.host, int(self.port or 0)), timeout=self.timeout
                )
            return conn
        except OSError as exc:
            raise ServiceError(
                "internal",
                f"cannot reach daemon at {self.address}: {exc} "
                "(is `repro serve` running?)",
            ) from exc

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.port}"

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request/response exchange; typed errors re-raise here.

        A kept connection that died between requests (the daemon
        restarted or closed it) earns one resend on a fresh one; a
        timeout does not, as the daemon is slow rather than gone.
        """
        data = encode_line(payload)
        with self._lock:
            while True:
                reused = self._kept is not None
                try:
                    line = self._exchange(data)
                except OSError as exc:
                    self._drop()
                    if not reused or isinstance(exc, TimeoutError):
                        raise ServiceError(
                            "internal",
                            f"connection to {self.address} failed: {exc}",
                        ) from exc
                    continue
                if not line.endswith(b"\n"):
                    self._drop()  # EOF, or cut at the size limit
                if line:
                    break
                if not reused:
                    raise ServiceError(
                        "internal",
                        f"daemon at {self.address} closed the connection",
                    )
        response = decode_line(line)
        if not response.get("ok", False):
            raise ServiceError.from_payload(response)
        return response

    def _exchange(self, data: bytes) -> bytes:
        """Send one line and read one, connecting first if needed."""
        if self._kept is None:
            conn = self._connect()
            self._kept = conn, conn.makefile("rb")
        conn, reader = self._kept
        conn.sendall(data)
        return reader.readline(16 * 1024 * 1024)

    def _drop(self) -> None:
        if self._kept is not None:
            conn, reader = self._kept
            self._kept = None
            reader.close()
            conn.close()

    def close(self) -> None:
        """Close the kept connection; a later request opens a new one."""
        with self._lock:
            self._drop()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def submit(self, spec: dict[str, Any]) -> dict[str, Any]:
        return self.request({"op": "submit", "spec": spec})

    def status(self, sub_id: str) -> dict[str, Any]:
        return self.request({"op": "status", "id": sub_id})

    def events(self, sub_id: str, since: int = 0) -> dict[str, Any]:
        return self.request({"op": "events", "id": sub_id, "since": since})

    def results(self, sub_id: str, fmt: str = "csv") -> dict[str, Any]:
        return self.request({"op": "results", "id": sub_id, "format": fmt})

    def cancel(self, sub_id: str) -> dict[str, Any]:
        return self.request({"op": "cancel", "id": sub_id})

    def ping(self) -> dict[str, Any]:
        return self.request({"op": "ping"})

    def wait_done(
        self,
        sub_id: str,
        poll: float = DEFAULT_POLL,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Poll until the submission reaches a terminal state."""
        deadline = (
            None if timeout is None
            else time.monotonic() + timeout  # noqa: REP001 - host polling, not simulated time
        )
        while True:
            status = self.status(sub_id)
            if status["state"] in TERMINAL:
                return status
            if deadline is not None and time.monotonic() > deadline:  # noqa: REP001 - host polling, not simulated time
                raise ServiceError(
                    "internal",
                    f"submission {sub_id} still {status['state']} after "
                    f"{timeout}s",
                )
            time.sleep(poll)  # noqa: REP001 - host polling, not simulated time

    def stream_events(
        self, sub_id: str, since: int = 0
    ) -> Iterator[dict[str, Any]]:
        """Yield event records as the daemon streams them (``follow``).

        The stream ends when the submission settles (or the daemon
        stops); the final control line is yielded too, distinguishable
        by its ``done`` field.
        """
        with self._connect() as conn:
            conn.settimeout(None)  # a quiet sweep can idle between events
            try:
                conn.sendall(encode_line(
                    {"op": "events", "id": sub_id, "since": since,
                     "follow": True}
                ))
                reader = conn.makefile("rb")
                for line in reader:
                    response = decode_line(line)
                    if not response.get("ok", False):
                        raise ServiceError.from_payload(response)
                    yield response
                    if "done" in response:
                        return
            except OSError as exc:
                raise ServiceError(
                    "internal", f"event stream from {self.address} broke: {exc}"
                ) from exc


__all__ = ["DEFAULT_POLL", "DEFAULT_TIMEOUT", "ServiceClient"]

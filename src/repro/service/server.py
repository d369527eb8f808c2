"""Socket front-end of the simulation daemon.

:class:`ServiceServer` listens on a unix stream socket (``--socket
PATH``) or a loopback TCP port (``--port N``) and speaks the line-JSON
protocol of :mod:`repro.service.protocol`: a connection carries any
number of exchanges, each one request line answered by one response
line, until the client closes it.  ``events`` with ``follow`` is the
exception: it streams one line per event until the submission settles,
then a final ``{"done": true}`` line, and ends its connection.  A client
that sends one line and closes is served exactly as before.

The accept loop runs with a short timeout so :meth:`request_stop` (wired
to SIGTERM/SIGINT by ``repro serve``) is honoured promptly; connection
handlers run in daemon threads, and every failure is answered with a
typed error payload rather than a dropped connection.  :meth:`close`
ends kept connections once their current exchange is answered.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, BinaryIO

from repro.errors import ReproError, UsageError
from repro.service.daemon import TERMINAL, ReproDaemon
from repro.service.protocol import ServiceError, decode_line, encode_line

#: Seconds between accept-timeout checks of the stop flag.
ACCEPT_POLL = 0.2

#: Seconds between event-file polls while streaming with ``follow``.
FOLLOW_POLL = 0.1


class ServiceServer:
    """Line-JSON listener in front of a :class:`ReproDaemon`."""

    def __init__(
        self,
        daemon: ReproDaemon,
        socket_path: str | Path | None = None,
        port: int | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        if (socket_path is None) == (port is None):
            raise UsageError(
                "serve needs exactly one of --socket PATH or --port N"
            )
        self.daemon = daemon
        self.socket_path = Path(socket_path).expanduser() if socket_path else None
        self.host = host
        self._stop = threading.Event()
        self._conns_lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        if self.socket_path is not None:
            # A previous daemon that died uncleanly leaves the socket
            # file behind; binding requires the path to be free.
            try:
                self.socket_path.unlink()
            except OSError:
                pass
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.bind(str(self.socket_path))
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, int(port or 0)))
        self._sock.listen(16)
        self._sock.settimeout(ACCEPT_POLL)
        self.port = (
            None if self.socket_path is not None else self._sock.getsockname()[1]
        )

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the accept loop to exit (signal-handler safe)."""
        self._stop.set()

    def serve_forever(self) -> None:
        """Accept connections until :meth:`request_stop`, then clean up."""
        self.daemon.start()
        try:
            while not self._stop.is_set():
                try:
                    conn, _addr = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listening socket closed under us
                with self._conns_lock:
                    self._conns.add(conn)
                thread = threading.Thread(
                    target=self._handle, args=(conn,), daemon=True
                )
                thread.start()
        finally:
            self.close()

    def close(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            # Shut only the read side: a handler blocked waiting for the
            # next request sees EOF, one mid-exchange still answers.
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        if self.socket_path is not None:
            try:
                self.socket_path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    def _handle(self, conn: socket.socket) -> None:
        try:
            with conn:
                reader = conn.makefile("rb")
                while self._exchange(conn, reader):
                    pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)

    def _exchange(self, conn: socket.socket, reader: BinaryIO) -> bool:
        """Answer one request line; False when the connection is over."""
        try:
            line = reader.readline(1024 * 1024)
        except OSError:
            return False
        if not line:
            return False
        try:
            request = decode_line(line)
            if request.get("op") == "events" and request.get("follow"):
                self._stream_events(conn, request)
                return False
            response = self.daemon.handle(request)
        except ServiceError as exc:
            response = exc.to_payload()
        except ReproError as exc:
            response = ServiceError("bad-request", str(exc)).to_payload()
        except Exception as exc:  # handler threads must answer, not die
            response = ServiceError(
                "internal", f"{type(exc).__name__}: {exc}"
            ).to_payload()
        # A line without its newline ended at EOF or at the size limit;
        # either way there is no next request to read.
        return self._send(conn, response) and line.endswith(b"\n")

    def _send(self, conn: socket.socket, payload: dict[str, Any]) -> bool:
        try:
            conn.sendall(encode_line(payload))
            return True
        except OSError:
            return False  # client went away; nothing to salvage

    def _stream_events(
        self, conn: socket.socket, request: dict[str, Any]
    ) -> None:
        """Stream event lines until the submission reaches a terminal state."""
        sub_id = request.get("id")
        since = request.get("since", 0)
        if not isinstance(since, int) or since < 0:
            self._send(
                conn,
                ServiceError(
                    "bad-request", "'since' must be an int >= 0"
                ).to_payload(),
            )
            return
        while True:
            try:
                batch = self.daemon.events(sub_id, since)
            except ServiceError as exc:
                self._send(conn, exc.to_payload())
                return
            for record in batch["events"]:
                if not self._send(conn, {"ok": True, "event": record}):
                    return
            since = batch["next"]
            if batch["state"] in TERMINAL:
                self._send(
                    conn,
                    {"ok": True, "done": True, "state": batch["state"],
                     "next": since},
                )
                return
            if self._stop.is_set():
                self._send(
                    conn,
                    {"ok": True, "done": False, "state": batch["state"],
                     "next": since},
                )
                return
            time.sleep(FOLLOW_POLL)  # noqa: REP001 - host polling, not simulated time


def serve(
    daemon: ReproDaemon,
    socket_path: str | Path | None = None,
    port: int | None = None,
    host: str = "127.0.0.1",
    install_signals: bool = True,
) -> ServiceServer:
    """Run a server until SIGTERM/SIGINT, then drain gracefully.

    The signal path is the daemon's whole graceful story: stop
    accepting connections, let queued and running submissions finish
    through :meth:`ReproDaemon.stop`, then return.
    """
    server = ServiceServer(daemon, socket_path=socket_path, port=port, host=host)
    if install_signals and threading.current_thread() is threading.main_thread():
        import signal

        def _drain(signum: int, frame: Any) -> None:
            server.request_stop()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)
    try:
        server.serve_forever()
    finally:
        daemon.stop()
    return server


__all__ = ["ACCEPT_POLL", "FOLLOW_POLL", "ServiceServer", "serve"]

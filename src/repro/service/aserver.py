"""The proximity server: one asyncio event loop on Unix and/or TCP sockets.

Every connection — Unix socket, TCP, or both at once — is multiplexed onto
a single event loop.  Requests are JSON lines (see
:mod:`repro.service.server`) answered one line per request; a request line
starting with ``GET`` or ``HEAD`` is answered as HTTP/1.0 instead, so
``curl http://host:port/metrics`` (or ``curl --unix-socket <sock>
http://localhost/metrics``) scrapes the Prometheus text with stock tooling.

The server fronts a *backend*: a
:class:`~repro.service.engine.ProximityEngine` or a
:class:`~repro.service.sharding.ShardedEngine`.  It calls
``backend.handle_request(request)`` for JSON lines and
``backend.render_metrics()`` for ``GET /metrics``.

Running a request can block on the engine for as long as the job takes,
so requests never run on the loop: they run on a fixed pool of
:data:`DISPATCH_WORKERS` threads.  At most that many requests are in
flight at once; a further concurrent request waits for a free thread
(connections themselves are never refused).  Request lines may be up to
:data:`MAX_LINE_BYTES` long; a longer line is answered with an error and
the connection closes.

The event loop runs on a dedicated background thread, so synchronous code
(the CLI, tests) can start/stop the server without itself being async.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

#: Threads that run backend requests off the event loop.
DISPATCH_WORKERS = 8

#: Longest accepted request line.  A ``submit`` whose ``candidates`` list
#: names a million objects (the Flickr1M scale the dataset generators
#: model) is about 8 MB of JSON.
MAX_LINE_BYTES = 16 * 1024 * 1024


def engine_backend(engine):
    """The backend :class:`AsyncProximityServer` uses for ``engine``.

    An engine is its own backend; callers that reassign the backend's
    ``handle_request`` (to time it, say) go through here.
    """
    return engine


async def _reply(writer: asyncio.StreamWriter, response: Dict[str, Any]) -> None:
    writer.write((json.dumps(response) + "\n").encode("utf-8"))
    await writer.drain()


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Consume the rest of an over-long line, so its sender reads the reply."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return


class AsyncProximityServer:
    """Serve a backend over asyncio on Unix and/or TCP transports.

    Pass ``socket_path`` for a Unix listener, ``host``/``port`` for TCP, or
    both; ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        backend: Any,
        *,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> None:
        if socket_path is None and port is None:
            raise ValueError("configure a Unix socket path, a TCP port, or both")
        self.backend = backend
        self.socket_path = None if socket_path is None else str(socket_path)
        self.host = host or "127.0.0.1"
        self.port = port
        self._dispatch = ThreadPoolExecutor(
            max_workers=DISPATCH_WORKERS, thread_name_prefix="repro-aserve"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._servers: List[asyncio.base_events.Server] = []
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- connection handling -------------------------------------------------

    async def _dispatch_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._dispatch, self.backend.handle_request, request
            )
        except Exception as exc:  # noqa: BLE001 - protocol errors answer, not crash
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    raw = exc.partial  # peer closed; answer a final unterminated line
                except asyncio.LimitOverrunError:
                    await _discard_line(reader)
                    error = f"request line longer than {MAX_LINE_BYTES} bytes"
                    await _reply(writer, {"ok": False, "error": error})
                    return
                except (ConnectionResetError, asyncio.CancelledError):
                    return  # peer reset, or server shutting down mid-connection
                if not raw:
                    return
                line = raw.strip()
                if not line:
                    continue
                if line.startswith(b"GET ") or line.startswith(b"HEAD "):
                    await self._serve_http(reader, writer, line)
                    return  # HTTP/1.0 semantics: one request, then close
                try:
                    response = await self._dispatch_request(
                        json.loads(line.decode("utf-8"))
                    )
                except json.JSONDecodeError as exc:
                    response = {"ok": False, "error": f"JSONDecodeError: {exc}"}
                await _reply(writer, response)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (  # pragma: no cover
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass

    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request_line: bytes,
    ) -> None:
        parts = request_line.split()
        target = parts[1].decode("utf-8", "replace") if len(parts) > 1 else ""
        head_only = request_line.startswith(b"HEAD ")
        # Drain the request headers so the client never sees a reset.
        while True:
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        path = target.split("?", 1)[0]
        if path == "/metrics":
            loop = asyncio.get_running_loop()
            text = await loop.run_in_executor(
                self._dispatch, self.backend.render_metrics
            )
            status = "200 OK"
            body = text.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            status = "404 Not Found"
            body = b"not found\n"
            content_type = "text/plain; charset=utf-8"
        head = (
            "HTTP/1.0 %s\r\n"
            "Content-Type: %s\r\n"
            "Content-Length: %d\r\n"
            "Connection: close\r\n"
            "\r\n" % (status, content_type, len(body))
        ).encode("ascii")
        writer.write(head if head_only else head + body)
        await writer.drain()

    # -- lifecycle -----------------------------------------------------------

    async def _start_servers(self) -> None:
        if self.socket_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_connection, path=self.socket_path,
                    limit=MAX_LINE_BYTES,
                )
            )
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port,
                limit=MAX_LINE_BYTES,
            )
            self._servers.append(server)
            # Ephemeral port: report what the OS actually bound.
            self.port = server.sockets[0].getsockname()[1]

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._start_servers())
        except BaseException as exc:  # noqa: BLE001 - surface bind errors
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            for server in self._servers:
                server.close()
                loop.run_until_complete(server.wait_closed())
            to_cancel = asyncio.all_tasks(loop)
            for task in to_cancel:
                task.cancel()
            if to_cancel:
                loop.run_until_complete(
                    asyncio.gather(*to_cancel, return_exceptions=True)
                )
            loop.close()

    def start(self) -> "AsyncProximityServer":
        """Bind the transports and serve on a background loop thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-aserve-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`close` (for CLI use); starts if needed."""
        if self._thread is None:
            self.start()
        self._stopped.wait()

    def close(self) -> None:
        """Stop listeners, the loop thread, and the dispatch pool."""
        self._stopped.set()
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._dispatch.shutdown(wait=False, cancel_futures=True)
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)

    def __enter__(self) -> "AsyncProximityServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

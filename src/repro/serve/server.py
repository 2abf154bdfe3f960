"""Asyncio JSON-lines TCP front-end over an :class:`OutlierService`.

The wire protocol is one JSON object per line, both ways.  Requests:

* ``{"op": "query", "detector": "name", "points": [[...], ...]}`` —
  classify; optional ``"timeout"`` (seconds) becomes the request's
  micro-batching deadline; optional ``"id"`` is echoed back.
* ``{"op": "stats"}`` — the service's ``serve.*`` counter snapshot with
  latency quantiles.
* ``{"op": "telemetry"}`` — exposition snapshot: numeric counters plus
  a ready-rendered Prometheus ``text`` field (what ``repro top``
  consumes).
* ``{"op": "list"}`` — registered detector names (plus attached
  stream names).
* ``{"op": "ping"}`` — liveness check.

Live-stream control ops (available for streams attached with
:meth:`OutlierServer.attach_stream`):

* ``{"op": "ingest", "stream": "name", "points": [[...], ...]}`` —
  feed a batch into the stream's sliding window; optional
  ``"timestamps"`` (scalar or per-point list).  The coordinator may
  snapshot + hot-swap per its refresh policy; the response reports
  ``accepted``/``evicted``/``window_points``/``swapped`` (and the
  installed ``version`` when a swap happened).
* ``{"op": "evict", "stream": "name", "count": N}`` (or
  ``"older_than": T``) — manual eviction; reports ``evicted``.
* ``{"op": "swap_status"}`` — installed model versions and swap
  latency facts from the service, plus per-stream window status;
  optional ``"detector"`` narrows to one name.

Ingest and evict run in a thread-pool executor, so the event loop —
and therefore in-flight ``query`` traffic — never blocks on window
maintenance or snapshot builds (the zero-downtime property the soak
test asserts).

With ``metrics_port`` set, the same telemetry is additionally served
over HTTP (``GET /metrics`` Prometheus text, ``GET /telemetry`` JSON)
by a stdlib listener, so an actual Prometheus can scrape it.

Responses carry ``"ok": true`` plus the payload, or ``"ok": false``
with ``"error"`` and ``"error_type"`` (the exception class name, which
:mod:`repro.serve.client` maps back to the library's exceptions —
``ServiceOverloadedError`` means "back off and retry").  One bad
request does not drop the connection; clients pipeline freely.

The event loop never blocks on classification: queries enqueue into the
service's micro-batcher and the handler awaits the future, so many
concurrent connections coalesce into shared vectorized batches.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

import numpy as np

from repro.exceptions import ServeError
from repro.net import MAX_LINE_BYTES, encode_line, error_payload, ok_payload
from repro.obs.expose import MetricsHTTPServer, telemetry_text
from repro.serve.service import OutlierService

__all__ = ["OutlierServer", "run_server", "MAX_LINE_BYTES"]


class OutlierServer:
    """JSON-lines TCP server wrapping an :class:`OutlierService`.

    Args:
        service: The (already populated) query service to front.
        host: Interface to bind.
        port: Port to bind; ``0`` picks a free one (see :attr:`port`
            after :meth:`start`).
        metrics_port: When set, also serve ``GET /metrics`` /
            ``GET /telemetry`` over HTTP on this port (``0`` picks a
            free one — read it back from ``server.metrics_http.port``).
    """

    def __init__(
        self,
        service: OutlierService,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_port: int | None = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._metrics_port = metrics_port
        self.metrics_http: MetricsHTTPServer | None = None
        self._server: asyncio.base_events.Server | None = None
        self._handlers: set[asyncio.Task] = set()
        self._streams: dict[str, Any] = {}
        self._ingest_lock = asyncio.Lock()

    # -- live streams ---------------------------------------------------

    def attach_stream(self, name: str, coordinator: Any) -> None:
        """Expose a :class:`~repro.stream.StreamCoordinator` over the
        wire: ``ingest``/``evict`` ops addressed to ``name`` drive it,
        and its window status shows up in ``swap_status``."""
        self._streams[name] = coordinator

    def streams(self) -> list[str]:
        """Names of attached live streams."""
        return list(self._streams)

    def _stream(self, name: Any):
        if not isinstance(name, str):
            raise ServeError("op needs a string 'stream' field")
        try:
            return self._streams[name]
        except KeyError:
            raise ServeError(
                f"unknown stream {name!r}; attached: "
                f"{list(self._streams) or 'none'}"
            ) from None

    def _telemetry(self) -> dict[str, Any]:
        """The service snapshot stamped with this server's address.

        Attached live streams contribute their ``stream.*`` and
        ``incremental.*`` counters (summed across streams), so the
        Prometheus plane sees ingest lag, window size, and snapshot
        age alongside the ``serve.*`` families.
        """
        snapshot = self.service.telemetry()
        counters = snapshot.setdefault("counters", {})
        for coordinator in self._streams.values():
            for key, value in coordinator.telemetry().items():
                if isinstance(value, (int, float)):
                    counters[key] = counters.get(key, 0) + value
        snapshot["host"] = self.host
        snapshot["port"] = self.port
        return snapshot

    async def start(self) -> "OutlierServer":
        """Bind and start accepting connections; resolves :attr:`port`."""
        self._server = await asyncio.start_server(
            self._on_connection,
            self.host,
            self.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self._metrics_port is not None and self.metrics_http is None:
            self.metrics_http = MetricsHTTPServer(
                self._telemetry, host=self.host, port=self._metrics_port
            )
        return self

    async def serve_forever(self) -> None:
        """Run until cancelled (call :meth:`start` first)."""
        if self._server is None:
            raise ServeError("call start() before serve_forever()")
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """End open connections, then close the listener.

        Each connection handler is cancelled and awaited, so its
        ``finally`` closes its writer while the loop still runs.  The
        listener closes last, with no await in between: a caller whose
        loop stops once :meth:`serve_forever` returns still sees this
        coroutine finish.
        """
        if self.metrics_http is not None:
            self.metrics_http.close()
            self.metrics_http = None
        if self._server is not None:
            while self._handlers:
                handlers = list(self._handlers)
                for task in handlers:
                    task.cancel()
                await asyncio.gather(*handlers, return_exceptions=True)
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Start a connection's handler task and track it until done."""
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer)
        )
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # oversized line
                    await self._send(
                        writer,
                        error_payload(
                            None,
                            ServeError(
                                f"request line exceeds {MAX_LINE_BYTES} "
                                "bytes"
                            ),
                        ),
                    )
                    break
                if not line:
                    break
                response = await self._dispatch(line)
                await self._send(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, payload: dict[str, Any]
    ) -> None:
        writer.write(encode_line(payload))
        await writer.drain()

    async def _dispatch(self, line: bytes) -> dict[str, Any]:
        request_id: Any = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServeError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op", "query")
            if op == "ping":
                return ok_payload(request_id, op="ping")
            if op == "list":
                return ok_payload(
                    request_id,
                    detectors=self.service.detectors(),
                    streams=self.streams(),
                )
            if op == "stats":
                return ok_payload(request_id, stats=self.service.stats())
            if op == "telemetry":
                snapshot = self._telemetry()
                return ok_payload(
                    request_id,
                    telemetry=snapshot,
                    text=telemetry_text(snapshot),
                )
            if op == "query":
                return await self._handle_query(request, request_id)
            if op == "ingest":
                return await self._handle_ingest(request, request_id)
            if op == "evict":
                return await self._handle_evict(request, request_id)
            if op == "swap_status":
                return self._handle_swap_status(request, request_id)
            raise ServeError(f"unknown op {op!r}")
        except json.JSONDecodeError as exc:
            return error_payload(
                request_id, ServeError(f"malformed JSON request: {exc}")
            )
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return error_payload(request_id, exc)

    async def _handle_query(
        self, request: dict[str, Any], request_id: Any
    ) -> dict[str, Any]:
        detector = request.get("detector")
        if not isinstance(detector, str):
            raise ServeError("query needs a string 'detector' field")
        points = np.asarray(request.get("points"), dtype=np.float64)
        if points.ndim == 1 and points.size:
            points = points[None, :]  # single point convenience
        timeout = request.get("timeout")
        future = self.service.submit(
            detector, points, timeout=timeout
        )
        labels = await asyncio.wrap_future(future)
        return ok_payload(
            request_id,
            labels=[int(label) for label in labels],
            n_outliers=int(labels.sum()),
        )

    async def _handle_ingest(
        self, request: dict[str, Any], request_id: Any
    ) -> dict[str, Any]:
        coordinator = self._stream(request.get("stream"))
        points = np.asarray(request.get("points"), dtype=np.float64)
        if points.ndim == 1 and points.size:
            points = points[None, :]  # single point convenience
        timestamps = request.get("timestamps")
        if timestamps is not None:
            timestamps = np.asarray(timestamps, dtype=np.float64)
        loop = asyncio.get_running_loop()
        # Window maintenance and snapshot builds happen off the event
        # loop so concurrent query traffic keeps flowing; the ingest
        # lock preserves wire arrival order.
        async with self._ingest_lock:
            status = await loop.run_in_executor(
                None,
                lambda: coordinator.ingest(
                    points, timestamps=timestamps
                ),
            )
        return ok_payload(request_id, **status)

    async def _handle_evict(
        self, request: dict[str, Any], request_id: Any
    ) -> dict[str, Any]:
        coordinator = self._stream(request.get("stream"))
        count = request.get("count")
        older_than = request.get("older_than")
        loop = asyncio.get_running_loop()
        async with self._ingest_lock:
            evicted = await loop.run_in_executor(
                None,
                lambda: coordinator.live.evict(
                    count=None if count is None else int(count),
                    older_than=(
                        None if older_than is None else float(older_than)
                    ),
                ),
            )
        return ok_payload(
            request_id,
            evicted=int(evicted),
            window_points=coordinator.live.window_points,
        )

    def _handle_swap_status(
        self, request: dict[str, Any], request_id: Any
    ) -> dict[str, Any]:
        detector = request.get("detector")
        status = self.service.swap_status(detector)
        status["streams"] = {
            name: coordinator.status()
            for name, coordinator in self._streams.items()
            if detector is None or name == detector
        }
        return ok_payload(request_id, **status)


def run_server(
    service: OutlierService,
    host: str = "127.0.0.1",
    port: int = 7227,
    metrics_port: int | None = None,
    streams: dict[str, Any] | None = None,
) -> None:
    """Blocking convenience runner used by ``repro serve``.

    ``streams`` maps names to
    :class:`~repro.stream.StreamCoordinator` instances to attach
    (enables the ``ingest``/``evict``/``swap_status`` ops for them).
    """

    async def _run() -> None:
        server = await OutlierServer(
            service, host, port, metrics_port=metrics_port
        ).start()
        for name, coordinator in (streams or {}).items():
            server.attach_stream(name, coordinator)
        print(f"serving {len(service.detectors())} detector(s) "
              f"on {host}:{server.port}")
        if streams:
            print(f"live stream(s): {', '.join(sorted(streams))}")
        if server.metrics_http is not None:
            print(f"metrics on http://{host}:{server.metrics_http.port}"
                  "/metrics")
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass

"""TCP server + blocking client over a live event loop thread."""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import sys
import threading

import numpy as np
import pytest

from repro import DBSCOUT
from repro.exceptions import (
    DataValidationError,
    ServeError,
    UnknownDetectorError,
)
from repro.serve import OutlierClient, OutlierServer, OutlierService


class _ServerHarness:
    """Run an :class:`OutlierServer` on a background event loop."""

    def __init__(self, service: OutlierService) -> None:
        self.server = OutlierServer(service, port=0)
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        if not self._started.wait(timeout=10):  # pragma: no cover
            raise RuntimeError("server did not start")

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._started.set()
        self.loop.run_forever()

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.aclose(), self.loop
        ).result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def served(clustered_2d):
    detector = DBSCOUT(eps=0.8, min_pts=10)
    result = detector.fit(clustered_2d)
    service = OutlierService()
    service.register("geo", detector.core_model_)
    harness = _ServerHarness(service)
    try:
        yield harness, result, clustered_2d
    finally:
        harness.stop()
        service.close()


def test_query_round_trip(served):
    harness, result, points = served
    with OutlierClient(port=harness.port) as client:
        labels = client.query("geo", points)
        np.testing.assert_array_equal(labels, result.labels())
        assert client.query_one("geo", [1000.0, 1000.0]) == 1


def test_ping_list_stats(served):
    harness, _, points = served
    with OutlierClient(port=harness.port) as client:
        assert client.ping() is True
        assert client.detectors() == ["geo"]
        client.query("geo", points[:20])
        stats = client.stats()
        assert stats["serve.requests"] >= 1
        assert stats["serve.models"] == ["geo"]


def test_unknown_detector_maps_to_library_exception(served):
    harness, _, _ = served
    with OutlierClient(port=harness.port) as client:
        with pytest.raises(UnknownDetectorError):
            client.query("nope", [[0.0, 0.0]])
        # one bad request does not poison the connection
        assert client.ping() is True


def test_dimension_mismatch_maps_to_validation_error(served):
    harness, _, _ = served
    with OutlierClient(port=harness.port) as client:
        with pytest.raises(DataValidationError):
            client.query("geo", [[0.0, 0.0, 0.0]])


def test_malformed_json_gets_error_response(served):
    harness, _, _ = served
    with socket.create_connection(
        ("127.0.0.1", harness.port), timeout=10
    ) as raw:
        raw.sendall(b"this is not json\n")
        reader = raw.makefile("rb")
        response = json.loads(reader.readline())
        assert response["ok"] is False
        assert "malformed JSON" in response["error"]
        # connection survives for the next (valid) request
        raw.sendall(b'{"op": "ping"}\n')
        assert json.loads(reader.readline())["ok"] is True


def test_unknown_op_is_rejected(served):
    harness, _, _ = served
    with OutlierClient(port=harness.port) as client:
        with pytest.raises(ServeError, match="unknown op"):
            client.call({"op": "explode"})


def test_request_ids_are_echoed(served):
    harness, _, _ = served
    with OutlierClient(port=harness.port) as client:
        first = client.call({"op": "ping"})
        second = client.call({"op": "ping"})
        assert second["id"] == first["id"] + 1


def test_connect_failure_raises_serve_error():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    with pytest.raises(ServeError, match="could not connect"):
        OutlierClient(port=free_port, timeout=0.5)


def test_concurrent_clients_share_batches(served):
    harness, result, points = served
    errors: list[Exception] = []

    def worker(offset: int) -> None:
        try:
            with OutlierClient(port=harness.port) as client:
                chunk = points[offset : offset + 30]
                labels = client.query("geo", chunk)
                np.testing.assert_array_equal(
                    labels, result.labels()[offset : offset + 30]
                )
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i * 30,)) for i in range(6)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert errors == []


def test_aclose_ends_idle_connections(clustered_2d, monkeypatch):
    # Closing the server must also end its connection handlers while
    # the loop still runs: a handler left pending is destroyed after
    # the loop closes, and its writer.close() then raises into
    # sys.unraisablehook ("Event loop is closed").
    detector = DBSCOUT(eps=0.8, min_pts=10)
    detector.fit(clustered_2d)
    service = OutlierService()
    service.register("geo", detector.core_model_)
    unraisable: list = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

    async def scenario():
        server = await OutlierServer(service, port=0).start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        assert json.loads(await reader.readline())["ok"] is True
        await server.aclose()
        pending = [
            task
            for task in asyncio.all_tasks()
            if task.get_coro().__qualname__.endswith("_handle_connection")
            and not task.done()
        ]
        try:
            tail = await asyncio.wait_for(reader.read(), timeout=2.0)
        except asyncio.TimeoutError:
            tail = None
        writer.close()
        await writer.wait_closed()
        return pending, tail

    loop = asyncio.new_event_loop()
    try:
        pending, tail = loop.run_until_complete(scenario())
    finally:
        loop.close()
        service.close()
    gc.collect()
    assert pending == []
    assert tail == b""  # the client reads EOF
    assert unraisable == []

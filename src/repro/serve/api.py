"""The fabric's wire layer: stdlib HTTP around the coordinator.

One :class:`CoordinatorServer` exposes a :class:`~repro.serve.coordinator.
Coordinator` on four JSON endpoints:

* ``POST /claim``   — ``{"worker_id": ...}`` → a shard grant,
  ``{"wait": true}`` or ``{"done": true}``;
* ``POST /submit``  — a shard's results; malformed payloads come back
  ``400`` with the quarantine path, valid ones merge (dedup by cache
  key, stale leases accepted but counted);
* ``GET /status``   — the live fabric snapshot (shards, leases, workers);
* ``GET /summary``  — the finalized ``summary.json`` document, or an
  ``in_progress`` stub while cells are still missing.

Everything is ``http.server`` + ``json`` + ``urllib`` — no third-party
dependency, which is what lets the worker CLI run on any host with a
Python.  The server is a :class:`~http.server.ThreadingHTTPServer`;
the coordinator's own lock serializes state changes, so concurrent
claims and submits are safe.

:class:`ServeClient` is the matching client: typed errors split "the
coordinator answered with an error" (:class:`ServeAPIError`, carries
the HTTP status and the decoded body) from "there is no coordinator
there" (:class:`CoordinatorUnreachable`) — the worker loop retries the
latter and surfaces the former.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.serve.coordinator import Coordinator, SubmitError

#: Cap request bodies (a shard of big traces is a few MB; 256 MB means
#: a confused client, not a campaign).
MAX_BODY_BYTES = 256 * 1024 * 1024


class ServeAPIError(Exception):
    """The coordinator answered with an HTTP error status."""

    def __init__(self, status: int, body: Any) -> None:
        self.status = status
        self.body = body
        detail = body.get("error") if isinstance(body, dict) else body
        super().__init__(f"coordinator returned {status}: {detail}")


class CoordinatorUnreachable(Exception):
    """No coordinator is answering at the given address."""


def _make_handler(coordinator: Coordinator) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"

        def log_message(self, format: str, *args: Any) -> None:
            pass  # the fabric's telemetry lives in /status, not stderr

        # -- plumbing ----------------------------------------------------

        def _send(self, status: int, payload: Any) -> None:
            body = json.dumps(payload, sort_keys=True, default=repr).encode(
                "utf-8"
            )
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> bytes:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0 or length > MAX_BODY_BYTES:
                raise ValueError(f"unreasonable Content-Length {length}")
            return self.rfile.read(length)

        # -- routes ------------------------------------------------------

        def do_GET(self) -> None:
            if self.path == "/status":
                self._send(200, coordinator.status())
            elif self.path == "/summary":
                self._send(200, coordinator.summary_document())
            else:
                self._send(404, {"error": f"no such endpoint {self.path!r}"})

        def do_POST(self) -> None:
            if self.path == "/claim":
                try:
                    raw = self._read_body()
                    payload = json.loads(raw) if raw else {}
                    worker_id = (
                        payload.get("worker_id")
                        if isinstance(payload, dict)
                        else None
                    )
                except (ValueError, OSError):
                    worker_id = None
                self._send(200, coordinator.claim(worker_id or "anonymous"))
            elif self.path == "/submit":
                try:
                    raw = self._read_body()
                except (ValueError, OSError) as exc:
                    self._send(400, {"error": str(exc)})
                    return
                try:
                    payload: Any = json.loads(raw)
                except ValueError as exc:
                    path = coordinator.quarantine(raw, f"invalid JSON: {exc}")
                    self._send(
                        400,
                        {"error": f"invalid JSON: {exc}", "quarantined": path},
                    )
                    return
                try:
                    self._send(200, coordinator.submit(payload))
                except SubmitError as exc:
                    path = coordinator.quarantine(payload, str(exc))
                    self._send(
                        400, {"error": str(exc), "quarantined": path}
                    )
            else:
                self._send(404, {"error": f"no such endpoint {self.path!r}"})

    return Handler


class CoordinatorServer:
    """Serve one coordinator on ``host:port`` (port 0 → ephemeral)."""

    def __init__(
        self, coordinator: Coordinator, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.coordinator = coordinator
        self._httpd = ThreadingHTTPServer(
            (host, port), _make_handler(coordinator)
        )
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CoordinatorServer":
        """Serve requests on a daemon thread; returns ``self``."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()


class ServeClient:
    """A worker's (or monitor's) typed view of the coordinator API."""

    def __init__(self, base_url: str, *, timeout_s: float = 30.0) -> None:
        if "://" not in base_url:
            base_url = f"http://{base_url}"
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def _call(
        self, path: str, payload: Any | None = None
    ) -> Any:
        data = (
            json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
            if payload is not None
            else None
        )
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST" if data is not None else "GET",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            # HTTPError subclasses URLError subclasses OSError — catch
            # it first or every API error looks like a dead coordinator.
            try:
                body: Any = json.loads(exc.read())
            except ValueError:
                body = None
            raise ServeAPIError(exc.code, body) from exc
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise CoordinatorUnreachable(
                f"{self.base_url}{path}: {exc}"
            ) from exc

    def claim(self, worker_id: str) -> dict[str, Any]:
        return self._call("/claim", {"worker_id": worker_id})

    def submit(self, payload: dict[str, Any]) -> dict[str, Any]:
        return self._call("/submit", payload)

    def submit_raw(self, raw: bytes) -> Any:
        """POST pre-encoded bytes to ``/submit`` (fault-injection tests)."""
        request = urllib.request.Request(
            self.base_url + "/submit",
            data=raw,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                body: Any = json.loads(exc.read())
            except ValueError:
                body = None
            raise ServeAPIError(exc.code, body) from exc
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise CoordinatorUnreachable(
                f"{self.base_url}/submit: {exc}"
            ) from exc

    def status(self) -> dict[str, Any]:
        return self._call("/status")

    def summary(self) -> dict[str, Any]:
        return self._call("/summary")

"""``repro serve``: the scenario daemon's HTTP surface.

A deliberately small, stdlib-only server (no framework dependency) that
fronts a :class:`~repro.service.queue.JobQueue` on localhost TCP or a
unix socket.  Every response body is the same JSON envelope the CLI
prints (:mod:`repro.service.envelope`), so ``curl | jq`` and the
``repro submit``/``status``/``result`` subcommands see one contract.

Routes (all under ``/v1``):

========  ======================  ==========================================
method    path                    meaning
========  ======================  ==========================================
GET       /v1/health              liveness + version + store stats
POST      /v1/jobs                submit ``{"spec": {...}, "execution": {...}}``
GET       /v1/jobs                list all jobs (status snapshots)
GET       /v1/jobs/<id>           one job's status
GET       /v1/jobs/<id>/result    archived result (409 until terminal)
GET       /v1/jobs/<id>/stream    NDJSON status stream until terminal
POST      /v1/batches             submit a sweep: ``{"specs": [...]}`` or
                                  ``{"base": {...}, "grid": {...}}``
GET       /v1/batches             list all batches (status snapshots)
GET       /v1/batches/<id>        one batch's aggregate status
GET       /v1/store               result-store stats
POST      /v1/shutdown            graceful stop
========  ======================  ==========================================

A batch is one sweep: every point becomes a member job with the usual
coalesce/cached semantics, points are grouped by trace signature and
each group executes over one shared trace set
(:meth:`~repro.service.queue.JobQueue.submit_batch`).  Member jobs
stay individually addressable under ``/v1/jobs/<id>``.

Request bodies are strict.  ``/v1/jobs`` accepts only the top-level
keys ``spec`` and ``execution``, ``/v1/batches`` only ``specs``,
``base``, ``grid`` and ``execution``; any other key is a 400 that names
it, so a misspelled key never runs silently with defaults.  The
optional ``"execution"`` object is parsed strictly by
:meth:`repro.execution.ExecutionConfig.from_dict`: known field names
only, JSON booleans for the switches and an integer for ``jobs``.
Anything else is a 400.  Both routes execute on the one executor
(:mod:`repro.simulation.sweep`): a job is a sweep group of one point.

HTTP status mirrors envelope exit codes: 200 for ``ok``, 400 for bad
requests, 404 for unknown jobs, 409 for not-ready results, 500 for
internal failures.  Request logs go to stderr (the human channel).
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro._version import __version__
from repro.execution import ExecutionConfig
from repro.service.envelope import dumps, envelope, error_envelope, hlog
from repro.service.queue import JobQueue
from repro.service.spec import ScenarioSpec, SpecError, expand_grid

__all__ = ["ServiceDaemon"]

_MAX_BODY = 1 << 20  # 1 MiB: specs are tiny; reject anything bigger
_STREAM_POLL = 0.1  # seconds between stream status snapshots
_JOB_KEYS = ("spec", "execution")  # the top-level keys of POST /v1/jobs
_BATCH_KEYS = ("specs", "base", "grid", "execution")  # ... of /v1/batches


class _UnixHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to a unix-domain socket path."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        path = self.server_address
        if isinstance(path, (bytes, str)) and os.path.exists(path):
            os.unlink(path)  # stale socket from a dead daemon
        socketserver.TCPServer.server_bind(self)

    def server_close(self) -> None:
        super().server_close()
        path = self.server_address
        try:
            if isinstance(path, (bytes, str)):
                os.unlink(path)
        except OSError:
            pass  # already removed; nothing to clean up


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the daemon; one instance per request."""

    daemon: "ServiceDaemon"  # injected by the factory
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        hlog(f"[serve] {self.command} {self.path} {args[1] if len(args) > 1 else ''}")

    def address_string(self) -> str:
        # AF_UNIX peers have no address tuple
        if isinstance(self.client_address, str):
            return self.client_address or "unix"
        return super().address_string()

    def _send(self, status: int, env: dict[str, Any]) -> None:
        body = (dumps(env, indent=2) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _safe_send(
        self, status: int, exc_type: str, message: str, exit_code: int = 2
    ) -> None:
        """Build and send an error envelope without letting the attempt
        itself kill the handler thread: when the peer is gone (broken
        pipe) or the envelope cannot serialize, the failure is logged
        and swallowed — there is no further channel to report it on."""
        try:
            env = error_envelope(
                "service.error", exc_type, message, exit_code=exit_code
            )
            self._send(status, env)
        except Exception as exc:
            hlog(f"[serve] failed to send error response: {exc!r}")

    def _read_body(self, keys: tuple[str, ...]) -> dict[str, Any]:
        """The request's JSON object; a top-level key outside ``keys``
        is a :class:`ValueError` (HTTP 400) that names it."""
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            raise ValueError(f"request body too large ({length} bytes)")
        if length == 0:
            return {}
        doc = json.loads(self.rfile.read(length).decode())
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        for key in doc:
            if key not in keys:
                raise ValueError(
                    f"unknown top-level key {key!r}; expected one of "
                    f"{', '.join(keys)}"
                )
        return doc

    # -- verbs ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._route("POST")

    def _route(self, method: str) -> None:
        parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
        try:
            self._dispatch(method, parts)
        except (ValueError, SpecError) as exc:
            self._safe_send(400, type(exc).__name__, str(exc))
        except KeyError as exc:
            self._safe_send(
                404, "NotFound", str(exc.args[0] if exc.args else exc))
        except LookupError as exc:
            self._safe_send(409, "NotReady", str(exc), exit_code=1)
        except Exception as exc:
            self._safe_send(500, type(exc).__name__, str(exc))

    def _dispatch(self, method: str, parts: list[str]) -> None:
        queue = self.daemon.queue
        if parts[:1] != ["v1"]:
            raise KeyError(f"unknown path {self.path!r}")
        tail = parts[1:]
        if method == "GET" and tail == ["health"]:
            self._send(200, envelope("service.health", self.daemon.health()))
        elif method == "POST" and tail == ["jobs"]:
            body = self._read_body(_JOB_KEYS)
            spec = ScenarioSpec.from_dict(body.get("spec") or {})
            execution = ExecutionConfig.from_dict(body.get("execution"))
            job = queue.submit(spec, execution)
            self._send(200, envelope("service.submit", job.to_status_dict()))
        elif method == "GET" and tail == ["jobs"]:
            self._send(200, envelope("service.jobs", {"jobs": queue.jobs()}))
        elif method == "GET" and len(tail) == 2 and tail[0] == "jobs":
            self._send(200, envelope("service.status", queue.status(tail[1])))
        elif method == "GET" and len(tail) == 3 and tail[:1] == ["jobs"] \
                and tail[2] == "result":
            doc = queue.result(tail[1])
            self._send(200, envelope("service.result", {
                "job_id": tail[1],
                "status": queue.status(tail[1]),
                "result": doc,
            }))
        elif method == "GET" and len(tail) == 3 and tail[:1] == ["jobs"] \
                and tail[2] == "stream":
            self._stream(tail[1])
        elif method == "POST" and tail == ["batches"]:
            body = self._read_body(_BATCH_KEYS)
            specs = self._batch_specs(body)
            execution = ExecutionConfig.from_dict(body.get("execution"))
            batch = queue.submit_batch(specs, execution)
            self._send(200, envelope(
                "service.batch", queue.batch_status(batch.batch_id)
            ))
        elif method == "GET" and tail == ["batches"]:
            self._send(200, envelope(
                "service.batches", {"batches": queue.batches()}
            ))
        elif method == "GET" and len(tail) == 2 and tail[0] == "batches":
            self._send(200, envelope(
                "service.batch", queue.batch_status(tail[1])
            ))
        elif method == "GET" and tail == ["store"]:
            self._send(200, envelope("service.store", queue.store.stats()))
        elif method == "POST" and tail == ["shutdown"]:
            self._send(200, envelope("service.shutdown", {"stopping": True}))
            self.daemon.stop_async()
        else:
            raise KeyError(f"unknown route {method} {self.path!r}")

    def _batch_specs(self, body: dict[str, Any]) -> list[ScenarioSpec]:
        """The point list of a batch body: an explicit ``"specs"`` list
        or a ``"base"`` + ``"grid"`` pair expanded server-side (exactly
        one of the two forms)."""
        has_specs = "specs" in body
        has_grid = "base" in body or "grid" in body
        if has_specs and has_grid:
            raise ValueError("give either 'specs' or 'base'+'grid', not both")
        if has_specs:
            raw_specs = body["specs"]
            if not isinstance(raw_specs, list) or not raw_specs:
                raise ValueError("'specs' must be a non-empty list")
            return [ScenarioSpec.from_dict(raw) for raw in raw_specs]
        if has_grid:
            base = body.get("base") or {}
            grid = body.get("grid") or {}
            if not isinstance(base, dict) or not isinstance(grid, dict):
                raise ValueError("'base' and 'grid' must be objects")
            return expand_grid(base, grid)
        raise ValueError("batch body needs 'specs' or 'base'+'grid'")

    def _stream(self, job_id: str) -> None:
        """NDJSON stream of status snapshots until the job is terminal."""
        queue = self.daemon.queue
        status = queue.status(job_id)  # raises KeyError before headers go out
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def write_chunk(doc: dict[str, Any]) -> None:
            data = (dumps(doc) + "\n").encode()
            self.wfile.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
            self.wfile.flush()

        while True:
            write_chunk(status)
            if status["state"] in ("done", "failed", "cached"):
                break
            queue.wait(job_id, timeout=_STREAM_POLL)
            status = queue.status(job_id)
        self.wfile.write(b"0\r\n\r\n")


class ServiceDaemon:
    """Owns the HTTP server + job queue pair behind ``repro serve``."""

    def __init__(
        self,
        queue: JobQueue | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | None = None,
    ):
        self.queue = queue if queue is not None else JobQueue()
        self.socket_path = socket_path
        self.started_at = time.time()
        handler = type("_BoundHandler", (_Handler,), {"daemon": self})
        if socket_path is not None:
            self._server: ThreadingHTTPServer = _UnixHTTPServer(
                socket_path, handler
            )
            self.endpoint = f"unix:{socket_path}"
        else:
            self._server = ThreadingHTTPServer((host, port), handler)
            bound_host, bound_port = self._server.server_address[:2]
            self.endpoint = f"http://{bound_host}:{bound_port}"
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop`."""
        hlog(f"[serve] listening on {self.endpoint}")
        try:
            self._server.serve_forever(poll_interval=0.2)
        finally:
            self._server.server_close()
            self.queue.shutdown()
            hlog("[serve] stopped")

    def start(self) -> None:
        """Serve on a background thread (tests, embedded use)."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True, name="repro-serve"
        )
        self._thread.start()

    def stop(self) -> None:
        """Graceful stop; waits for the server thread if one exists."""
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def stop_async(self) -> None:
        """Initiate a stop from inside a request handler (shutdown()
        blocks until the serve loop exits, so it must not run on a
        handler thread)."""
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    # -- status --------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """The ``/v1/health`` payload: liveness, version, store stats."""
        return {
            "status": "ok",
            "version": __version__,
            "endpoint": self.endpoint,
            "uptime": time.time() - self.started_at,
            "store": self.queue.store.stats(),
        }

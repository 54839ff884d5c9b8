"""The wire: JSON over HTTP/1.1 on a Unix-domain or TCP socket, stdlib only.

The server is a deliberately thin shell over :class:`JobGateway` — every
route is parse / delegate / serialize, so the whole scheduler-of-jobs stays
testable without a socket. The default listener is a Unix-domain socket
(no port allocation, filesystem permissions as access control); pass
``host``/``port`` for TCP.

Wire protocol (all bodies JSON; all responses
``{"ok": bool, ...}`` with errors as ``{"ok": false, "error": str}``):

====== ============================== ===========================================
Method Path                           Meaning
====== ============================== ===========================================
POST   /api/v1/jobs                   submit ``{app, params?, seed?, backend?,
                                      ranks?, tenant?}`` → 202 + job doc;
                                      any other key → 400
GET    /api/v1/jobs/<id>              status → 200 + job doc
GET    /api/v1/jobs/<id>/result       long-poll result (``?timeout=<s>``):
                                      200 + doc-with-result when terminal,
                                      202 + doc while still pending
POST   /api/v1/jobs/<id>/cancel       cancel → 200 + ``{outcome}``
POST   /api/v1/drain                  ``{timeout?}`` → 200 + ``{drained}``
POST   /api/v1/reload                 rebuild warm pools → 200 + ``{generation}``
GET    /api/v1/stats                  accounting snapshot
GET    /api/v1/health                 liveness + draining flag
====== ============================== ===========================================

Error statuses follow HTTP semantics: 400 bad spec or malformed number
(:class:`ConfigError`), 404 unknown job (:class:`UnknownJob`), **429 tenant
queue full** (:class:`QueueFull` — the
backpressure contract: clients back off and retry), 503 draining.
"""

from __future__ import annotations

import json
import math
import os
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.admission import QueueFull
from repro.service.gateway import JobGateway, ServiceDraining, UnknownJob
from repro.util.errors import ConfigError

__all__ = ["ServiceServer"]

_API = "/api/v1"
#: Top-level keys of a ``POST /api/v1/jobs`` body (JobGateway.submit's
#: parameters).
_JOB_KEYS = ("app", "params", "seed", "backend", "ranks", "tenant")


def _timeout(value: Any, default: Optional[float]) -> Optional[float]:
    """A request's ``timeout`` (query string or JSON number) as finite,
    non-negative seconds; anything else is the client's error (400)."""
    if value is None:
        return default
    try:
        seconds = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        seconds = math.nan
    if not (0.0 <= seconds < math.inf):
        raise ConfigError(f"timeout must be a finite number of seconds "
                          f">= 0, got {value!r}")
    return seconds


class _Handler(BaseHTTPRequestHandler):
    """Routes one request to the gateway. One instance per request."""

    protocol_version = "HTTP/1.1"   # keep-alive: clients reuse connections
    server_version = "repro-service/1"
    gateway: JobGateway = None  # type: ignore[assignment] - set by subclass

    # -- plumbing ------------------------------------------------------
    def address_string(self) -> str:  # AF_UNIX peers have no address tuple
        if isinstance(self.client_address, tuple) and self.client_address:
            return str(self.client_address[0])
        return "uds"

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # request logging is the embedder's business, not stderr's

    def _reply(self, status: int, doc: Dict[str, Any]) -> None:
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        try:
            doc = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("request body must be a JSON object")
        return doc

    def _route(self) -> Tuple[str, Dict[str, Any]]:
        parsed = urlparse(self.path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        return parsed.path, query

    # -- methods -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path, query = self._route()
        try:
            if path == f"{_API}/health":
                self._reply(200, {"ok": True, "status": "ok",
                                  "draining": self.gateway.draining})
            elif path == f"{_API}/stats":
                self._reply(200, {"ok": True, "stats": self.gateway.stats_dict()})
            elif path.startswith(f"{_API}/jobs/") and path.endswith("/result"):
                job_id = path[len(f"{_API}/jobs/"):-len("/result")]
                timeout = min(_timeout(query.get("timeout"), 0.0), 60.0)
                doc = self.gateway.result(job_id, timeout=timeout)
                status = 200 if "result" in doc else 202
                self._reply(status, {"ok": True, "job": doc})
            elif path.startswith(f"{_API}/jobs/"):
                job_id = path[len(f"{_API}/jobs/"):]
                self._reply(200, {"ok": True,
                                  "job": self.gateway.status(job_id)})
            else:
                self._reply(404, {"ok": False, "error": f"no route {path}"})
        except UnknownJob as exc:
            self._reply(404, {"ok": False, "error": str(exc)})
        except ConfigError as exc:
            self._reply(400, {"ok": False, "error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path, _query = self._route()
        try:
            body = self._body()
            if path == f"{_API}/jobs":
                # A misspelt or retired key ("sead", "engine") must not be
                # dropped: the job would run, and be cached, as something
                # the client did not ask for.
                unknown = sorted(set(body) - set(_JOB_KEYS))
                if unknown:
                    raise ConfigError(
                        f"unknown job field(s) {unknown}; "
                        f"valid: {list(_JOB_KEYS)}")
                body.setdefault("app", "")
                job = self.gateway.submit(**body)
                self._reply(202, {"ok": True, "job": job.to_dict(
                    with_result=job.terminal)})
            elif path.startswith(f"{_API}/jobs/") and path.endswith("/cancel"):
                job_id = path[len(f"{_API}/jobs/"):-len("/cancel")]
                self._reply(200, {"ok": True,
                                  **self.gateway.cancel(job_id)})
            elif path == f"{_API}/drain":
                drained = self.gateway.drain(
                    timeout=_timeout(body.get("timeout"), None))
                self._reply(200, {"ok": True, "drained": drained})
            elif path == f"{_API}/reload":
                gen = self.gateway.reload()
                self._reply(200, {"ok": True, "generation": gen})
            else:
                self._reply(404, {"ok": False, "error": f"no route {path}"})
        except QueueFull as exc:
            self._reply(429, {"ok": False, "error": str(exc),
                              "tenant": exc.tenant, "retry_after": 0.05})
        except ServiceDraining as exc:
            self._reply(503, {"ok": False, "error": str(exc)})
        except UnknownJob as exc:
            self._reply(404, {"ok": False, "error": str(exc)})
        except ConfigError as exc:
            self._reply(400, {"ok": False, "error": str(exc)})


class _UdsHTTPServer(ThreadingHTTPServer):
    address_family = socket.AF_UNIX
    daemon_threads = True
    allow_reuse_address = False

    def server_bind(self) -> None:
        path = self.server_address
        if isinstance(path, str) and os.path.exists(path):
            os.unlink(path)
        self.socket.bind(path)

    def server_activate(self) -> None:
        self.socket.listen(256)


class _TcpHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 256


class ServiceServer:
    """Owns the listener thread and the gateway it exposes.

    Exactly one of ``uds`` or ``host``/``port`` selects the transport;
    with neither given a UDS at ``<cwd>/repro-service.sock`` is used.
    """

    def __init__(self, gateway: JobGateway, *, uds: Optional[str] = None,
                 host: Optional[str] = None, port: int = 0):
        self.gateway = gateway
        if uds is not None and host is not None:
            raise ConfigError("pass either uds= or host=/port=, not both")
        if host is None and uds is None:
            uds = os.path.join(os.getcwd(), "repro-service.sock")
        self.uds = uds
        handler = type("BoundHandler", (_Handler,), {"gateway": gateway})
        if uds is not None:
            self._httpd: ThreadingHTTPServer = _UdsHTTPServer(uds, handler)
            self.host, self.port = None, None
        else:
            self._httpd = _TcpHTTPServer((host, port), handler)
            self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        if self.uds is not None:
            return f"uds:{self.uds}"
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        if not self.gateway._started:
            self.gateway.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name="svc-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop listening and close the gateway (hard stop — for the
        graceful path drain the gateway first, e.g. via POST /drain)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self.uds is not None and os.path.exists(self.uds):
            os.unlink(self.uds)
        self.gateway.close()

    def serve_until_drained(self, poll: float = 0.2) -> None:
        """Block until the gateway has drained (used by the CLI daemon)."""
        import time as _time

        while not (self.gateway.draining and
                   self.gateway._unfinished == 0):
            _time.sleep(poll)

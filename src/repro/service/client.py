"""Client for the job gateway: stdlib HTTP over a UDS or TCP socket.

One :class:`ServiceClient` wraps one persistent connection (HTTP/1.1
keep-alive) and is **not** thread-safe — give each driving thread its own
client, the way each benchmark driver thread does. The client implements
the protocol's backpressure contract: a 429 (tenant queue full) is retried
after the server's ``retry_after`` hint plus deterministic seeded jitter
from an exponential window, up to ``submit_attempts`` times before
:class:`ServiceError` propagates — the hint paces retries to the queue's
actual drain rate, and the jitter keeps a burst of rejected clients from
retrying in lockstep and re-colliding.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Callable, Dict, Mapping, Optional

from repro.util.errors import HiperError
from repro.util.rng import RngFactory

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(HiperError):
    """A request failed; carries the HTTP status and server error text."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(f"[{status}] {message}")


class _UdsConnection(http.client.HTTPConnection):
    def __init__(self, path: str, timeout: Optional[float] = None):
        super().__init__("localhost", timeout=timeout)
        self._uds_path = path

    def connect(self) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            self.sock.settimeout(self.timeout)
        self.sock.connect(self._uds_path)


class ServiceClient:
    """Submit/status/result/cancel against one running service."""

    def __init__(self, *, uds: Optional[str] = None,
                 host: Optional[str] = None, port: Optional[int] = None,
                 timeout: float = 120.0, submit_attempts: int = 12,
                 backoff_base: float = 0.02, backoff_cap: float = 1.0,
                 seed: int = 0,
                 sleep: Callable[[float], None] = time.sleep):
        if (uds is None) == (host is None):
            raise ValueError("pass exactly one of uds= or host=/port=")
        self.uds = uds
        self.host, self.port = host, port
        self.timeout = timeout
        self.submit_attempts = submit_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        # Deterministic per-client jitter stream: different seeds decorrelate
        # concurrent clients, the same seed replays the same delays.
        self._rng = RngFactory(seed).stream("service", "client-backoff")
        self._sleep = sleep
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- transport -----------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            if self.uds is not None:
                self._conn = _UdsConnection(self.uds, timeout=self.timeout)
            else:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def request(self, method: str, path: str,
                body: Optional[Mapping[str, Any]] = None
                ) -> Dict[str, Any]:
        """One request/response cycle; reconnects once on a dropped
        keep-alive connection. Returns the decoded document with the HTTP
        status attached as ``doc["_status"]``."""
        payload = json.dumps(dict(body)).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
                break
            except (http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        doc = json.loads(raw) if raw else {}
        doc["_status"] = resp.status
        return doc

    def _checked(self, method: str, path: str,
                 body: Optional[Mapping[str, Any]] = None,
                 ok_statuses: tuple = (200, 202)) -> Dict[str, Any]:
        doc = self.request(method, path, body)
        if doc["_status"] not in ok_statuses:
            raise ServiceError(doc["_status"], doc.get("error", "unknown"))
        return doc

    # -- API -----------------------------------------------------------
    def _backoff_delay(self, attempt: int,
                       retry_after: Optional[float]) -> float:
        """Delay before retrying a 429.

        Honors the server's ``retry_after`` hint as a floor (the gateway
        knows how fast its queues drain), plus seeded jitter drawn from the
        exponential window — so concurrent clients that were rejected in
        the same burst do not retry in lockstep and re-collide forever.
        """
        window = min(self.backoff_base * (2 ** attempt), self.backoff_cap)
        u = float(self._rng.random())
        if retry_after is not None and retry_after > 0:
            return float(retry_after) + u * window
        # No hint: full jitter over the window, floored at half so every
        # retry still makes progress through the exponential schedule.
        return window * (0.5 + 0.5 * u)

    def submit(self, app: str, params: Optional[Mapping[str, Any]] = None, *,
               seed: int = 0, backend: str = "sim",
               ranks: int = 2, tenant: str = "default") -> Dict[str, Any]:
        """Submit a job; absorbs 429 backpressure with jittered backoff.

        Returns the job document (``doc["job_id"]`` is the handle).
        """
        body = {"app": app, "params": dict(params or {}), "seed": seed,
                "backend": backend, "ranks": ranks, "tenant": tenant}
        for attempt in range(self.submit_attempts):
            doc = self.request("POST", "/api/v1/jobs", body)
            if doc["_status"] == 202:
                return doc["job"]
            if doc["_status"] != 429 or attempt + 1 >= self.submit_attempts:
                raise ServiceError(doc["_status"], doc.get("error", "unknown"))
            hint = doc.get("retry_after")
            self._sleep(self._backoff_delay(
                attempt, float(hint) if hint is not None else None))
        raise AssertionError("unreachable")  # pragma: no cover

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._checked("GET", f"/api/v1/jobs/{job_id}")["job"]

    def result(self, job_id: str, timeout: float = 0.0) -> Dict[str, Any]:
        """One (long-)poll for the result; may return a non-terminal doc."""
        return self._checked(
            "GET", f"/api/v1/jobs/{job_id}/result?timeout={timeout}")["job"]

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 1.0) -> Dict[str, Any]:
        """Block until the job is terminal; raises :class:`ServiceError`
        (status 0) on client-side timeout."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(0, f"job {job_id} still "
                                      "running at client timeout")
            doc = self.result(job_id, timeout=min(poll, remaining))
            if doc["state"] in ("done", "failed", "cancelled"):
                return doc

    def cancel(self, job_id: str) -> str:
        return self._checked("POST", f"/api/v1/jobs/{job_id}/cancel")["outcome"]

    def drain(self, timeout: Optional[float] = None) -> bool:
        body = {} if timeout is None else {"timeout": timeout}
        return self._checked("POST", "/api/v1/drain", body)["drained"]

    def reload(self) -> int:
        return self._checked("POST", "/api/v1/reload", {})["generation"]

    def stats(self) -> Dict[str, Any]:
        return self._checked("GET", "/api/v1/stats")["stats"]

    def health(self) -> Dict[str, Any]:
        return self._checked("GET", "/api/v1/health")

"""``repro serve``: a localhost HTTP/JSON front end over sessions.

Single-threaded on purpose — sessions are stateful and not
thread-safe; one request at a time is the concurrency model.

Routes (all POST bodies and responses are JSON):

* ``POST /open`` — ``{"source": ...}`` (TinyC) or ``{"ir": ...}``,
  optional ``"name"`` and ``"options"`` (an
  :meth:`repro.options.AnalysisOptions.as_dict` mapping).  Sessions are
  cached per content digest: re-opening the same text under the same
  options returns the resident session.
* ``POST /update`` — ``{"digest", "function", "body"}`` → re-analysis
  stats.
* ``POST /query_sites`` — ``{"digest", "uids"?}`` → verdicts.
* ``POST /explain`` — ``{"digest", "uid"}`` → rendered flow steps.
* ``POST /stats`` / ``GET /ping`` — introspection.

Each routed POST runs inside a ``serve.request`` span; a request that
fails leaves that span tagged ``error`` in the trace.

Client errors answer ``400`` (malformed input) or ``404`` (unknown
digest — :class:`UnknownDigestError` — or unknown route) with
``{"error": "<one line>"}``.  The 404 contract is uniform: *every*
digest-taking route (``/update``, ``/query_sites``, ``/explain``,
``/stats``) answers the same one-line 404 on an unknown digest, and
nothing else maps to 404; a known digest with bad arguments (an
unknown function name, a missing field) is always a 400.
"""

from __future__ import annotations

import hashlib
import json
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Dict, Optional
from urllib.error import HTTPError
from urllib.request import Request, urlopen

from repro.obs.trace import TRACE
from repro.options import AnalysisOptions
from repro.service.session import AnalysisSession

__all__ = [
    "ReproServer",
    "ServiceClient",
    "ServiceError",
    "UnknownDigestError",
    "serve",
]


class UnknownDigestError(LookupError):
    """The only condition (besides an unknown route) that answers 404."""


class ServiceError(RuntimeError):
    """A server-reported error, re-raised client-side."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"{status}: {message}")
        self.status = status
        self.message = message


def _digest(kind: str, name: str, text: str, options: Dict) -> str:
    payload = json.dumps(
        [kind, name, text, options], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class ReproServer(HTTPServer):
    """The session registry behind the handler."""

    def __init__(self, address, options: Optional[AnalysisOptions] = None):
        super().__init__(address, _Handler)
        self.sessions: Dict[str, AnalysisSession] = {}
        self.default_options = (
            options if options is not None else AnalysisOptions()
        )


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:  # keep stdout for the CLI
        pass

    # -- plumbing --------------------------------------------------------
    def _reply(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _session(self, data: Dict) -> AnalysisSession:
        digest = data.get("digest")
        session = self.server.sessions.get(digest)
        if session is None:
            raise UnknownDigestError(f"unknown session digest {digest!r}")
        return session

    # -- routes ----------------------------------------------------------
    def do_GET(self) -> None:
        if self.path == "/ping":
            self._reply(
                200, {"ok": True, "sessions": sorted(self.server.sessions)}
            )
        else:
            self._reply(404, {"error": f"unknown route {self.path}"})

    def do_POST(self) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b"{}"
            data = json.loads(raw.decode("utf-8"))
            if not isinstance(data, dict):
                raise ValueError("request body must be a JSON object")
            route = getattr(self, "_route" + self.path.replace("/", "_"), None)
            if route is None:
                self._reply(404, {"error": f"unknown route {self.path}"})
                return
            with TRACE.span("serve.request", route=self.path):
                payload = route(data)
            self._reply(200, payload)
        except UnknownDigestError as exc:
            self._reply(404, {"error": _one_line(exc)})
        except Exception as exc:
            self._reply(400, {"error": _one_line(exc)})

    def _route_open(self, data: Dict) -> Dict:
        source = data.get("source")
        ir = data.get("ir")
        if (source is None) == (ir is None):
            raise ValueError("open needs exactly one of 'source' or 'ir'")
        name = data.get("name", "module")
        raw_options = data.get("options") or {}
        options = self.server.default_options.merged(
            **AnalysisOptions.from_dict(raw_options).as_dict()
        )
        kind = "source" if source is not None else "ir"
        digest = _digest(kind, name, source or ir, options.as_dict())
        session = self.server.sessions.get(digest)
        cached = session is not None
        if session is None:
            if source is not None:
                session = AnalysisSession.from_source(
                    source, name=name, options=options
                )
            else:
                session = AnalysisSession.from_ir(
                    ir, name=name, options=options
                )
            self.server.sessions[digest] = session
        return {
            "digest": digest,
            "cached": cached,
            "generation": session.generation,
            "functions": session.function_names(),
            "check_sites": len(session.vfg.check_sites),
        }

    def _route_update(self, data: Dict) -> Dict:
        session = self._session(data)
        function = data.get("function")
        body = data.get("body")
        if not function or body is None:
            raise ValueError("update needs 'function' and 'body'")
        try:
            stats = session.update(function, body)
        except KeyError as exc:
            # An unknown *function* on a known digest is malformed
            # input (400), not a missing resource (404).
            raise ValueError(_one_line(exc)) from None
        return stats.as_dict()

    def _route_query_sites(self, data: Dict) -> Dict:
        session = self._session(data)
        verdicts = session.query_sites(uids=data.get("uids"))
        return {
            "verdicts": {str(uid): ok for uid, ok in sorted(verdicts.items())}
        }

    def _route_explain(self, data: Dict) -> Dict:
        session = self._session(data)
        uid = data.get("uid")
        if uid is None:
            raise ValueError("explain needs 'uid'")
        steps = session.explain(int(uid))
        return {
            "steps": None
            if steps is None
            else [step.render() for step in steps]
        }

    def _route_stats(self, data: Dict) -> Dict:
        return self._session(data).stats()


def _one_line(exc: Exception) -> str:
    text = str(exc) or type(exc).__name__
    return " ".join(text.split())


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    options: Optional[AnalysisOptions] = None,
) -> ReproServer:
    """Bind the service (``port=0`` picks a free port); the caller runs
    ``server.serve_forever()``."""
    return ReproServer((host, port), options=options)


class ServiceClient:
    """A minimal stdlib client for the serve endpoint."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _call(self, route: str, payload: Optional[Dict] = None) -> Dict:
        url = self.base_url + route
        if payload is None:
            request = Request(url)
        else:
            request = Request(
                url,
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
        try:
            with urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8"))["error"]
            except Exception:
                message = exc.reason
            raise ServiceError(exc.code, message) from None

    def ping(self) -> Dict:
        return self._call("/ping")

    def open(
        self,
        source: Optional[str] = None,
        ir: Optional[str] = None,
        name: str = "module",
        options: Optional[Dict] = None,
    ) -> Dict:
        payload: Dict = {"name": name}
        if source is not None:
            payload["source"] = source
        if ir is not None:
            payload["ir"] = ir
        if options:
            payload["options"] = options
        return self._call("/open", payload)

    def update(self, digest: str, function: str, body: str) -> Dict:
        return self._call(
            "/update", {"digest": digest, "function": function, "body": body}
        )

    def query_sites(
        self, digest: str, uids: Optional[list] = None
    ) -> Dict[int, bool]:
        payload: Dict = {"digest": digest}
        if uids is not None:
            payload["uids"] = list(uids)
        raw = self._call("/query_sites", payload)["verdicts"]
        return {int(uid): ok for uid, ok in raw.items()}

    def explain(self, digest: str, uid: int) -> Optional[list]:
        return self._call("/explain", {"digest": digest, "uid": uid})["steps"]

    def stats(self, digest: str) -> Dict:
        return self._call("/stats", {"digest": digest})

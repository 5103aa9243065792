"""HTTP client implementing the model interface against an external scoring
server, plus a threaded stub server that exposes any in-process model over
the same wire protocol for testing.

Protocol: GET /v1/info -> {"vocab_size": int, "name": str, "deterministic":
bool, "encodings": ["json", "f64le"]}; POST /v1/score with {"tokens": [...],
"start": int} -> {"dists": [[...], ...]}.  A client whose server announces
"f64le" adds "encoding": "f64le" to the score request and gets
{"f64le": <base64 of the row-major little-endian float64 matrix>} instead;
JSON "dists" is the baseline for peers that announce or ask for nothing.
Errors carry {"error": str}; a score request that is not an object with
"tokens", a list of token ids in [0, vocab_size), and "start", an int in
[1, len(tokens) + 1], gets a 400.  Replies are strict JSON: a non-finite row
from the served model becomes a 500 error.  The stub speaks HTTP/1.1, so a
client keeps one connection alive across calls.
"""
from __future__ import annotations

import base64
import json
import socket
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence

import numpy as np
import requests

from .core import ConfigError, ContractViolation, LanguageModel, Vocab, integer, reading, real

ROW_SUM_TOL = 1e-6
#: row encodings of a score reply, baseline first
ENCODINGS = ("json", "f64le")


class RemoteUnavailable(RuntimeError):
    """Server unreachable after exhausting the retry budget."""


class ProtocolError(RuntimeError):
    """Server answered with a malformed or invalid payload."""


@dataclass(frozen=True)
class RemoteModelSpec:
    base_url: str
    vocab_size: int
    cost_weight: float = 1.0
    timeout: float = 10.0
    retries: int = 2
    descriptor: str = "remote"


def _pinned_session(url: str) -> requests.Session:
    """A session holding the proxies, CA bundle and netrc auth the
    environment gives `url`, read once here instead of on every request."""
    session = requests.Session()
    settings = session.merge_environment_settings(url, {}, None, None, None)
    session.proxies = settings["proxies"]
    session.verify = settings["verify"]
    session.auth = requests.utils.get_netrc_auth(url)
    session.trust_env = False
    return session


def _json_rows(rows, width: int):
    """(leading rows of `width` numbers as one float64 matrix, row count or
    the payload's type name)."""
    if not isinstance(rows, list):
        return None, type(rows).__name__
    good = []
    for row in rows:
        try:
            v = np.asarray(row, dtype=np.float64)
        except (ValueError, TypeError):
            break
        if v.shape != (width,):
            break
        good.append(v)
    return np.array(good, dtype=np.float64).reshape(len(good), width), len(rows)


def _f64le_rows(data, width: int):
    """As `_json_rows`, for base64 of little-endian float64s; a short last
    row counts as a row."""
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError):  # not a string, or not base64
        return None, type(data).__name__
    row_bytes = 8 * width
    full = len(raw) // row_bytes
    m = np.frombuffer(raw, dtype="<f8", count=full * width).reshape(full, width)
    return m, -(-len(raw) // row_bytes)


def _checked_rows(m, count, expected: int) -> list:
    """Checks the decoded rows in order and returns them renormalized."""
    if count != expected:
        raise ProtocolError(f"expected {expected} distributions, got {count}")
    malformed = ~(np.isfinite(m) & (m >= 0)).all(axis=1)
    totals = m.sum(axis=1)
    bad = np.flatnonzero(malformed | (np.abs(totals - 1.0) > ROW_SUM_TOL))
    if bad.size:
        i = int(bad[0])
        if malformed[i]:
            raise ProtocolError(f"malformed distribution at row {i}")
        raise ProtocolError(f"row {i} sums to {float(totals[i])}, outside tolerance")
    if len(m) < count:
        raise ProtocolError(f"malformed distribution at row {len(m)}")
    return list(m / totals[:, None])


class RemoteModel(LanguageModel):
    """Scores token sequences by calling a remote server; one request per
    evaluate call over one kept-alive connection, retried per the spec's
    budget (scoring is idempotent).  Rows travel as binary when the server
    announces it."""

    def __init__(self, spec: RemoteModelSpec, vocab: Optional[Vocab] = None):
        if vocab is not None and vocab.size != spec.vocab_size:
            raise ConfigError(
                f"vocab has {vocab.size} pieces but the spec says {spec.vocab_size}"
            )
        with reading(f"remote model {spec.descriptor!r}"):  # before any request is sent
            integer(spec.retries, "retries")
            if not 0 < real(spec.timeout, "timeout") < np.inf:
                raise ValueError(f"timeout {spec.timeout!r} is not a finite number > 0")
        self.spec = spec
        self._url = spec.base_url.rstrip("/")
        self._session = _pinned_session(self._url)
        info = self.handshake()
        if vocab is None:
            vocab = Vocab(tuple(f"<{i}>" for i in range(spec.vocab_size)))
        super().__init__(vocab, spec.cost_weight, spec.descriptor)
        self.deterministic = bool(info.get("deterministic", True))
        encodings = info.get("encodings")
        self._binary = isinstance(encodings, list) and "f64le" in encodings

    def _request(self, method: str, path: str, body=None) -> dict:
        url = self._url + path
        last_err = None
        for _ in range(self.spec.retries + 1):
            try:
                if method == "GET":
                    resp = self._session.get(url, timeout=self.spec.timeout)
                else:
                    resp = self._session.post(url, json=body, timeout=self.spec.timeout)
                break
            except (requests.ConnectionError, requests.Timeout) as err:
                last_err = err
        else:
            raise RemoteUnavailable(f"{url}: {last_err}")
        try:
            payload = resp.json()
        except ValueError as err:
            raise ProtocolError(f"{url}: non-JSON response") from err
        if not isinstance(payload, dict):
            raise ProtocolError(f"{url}: HTTP {resp.status_code}: non-object JSON reply")
        if resp.status_code != 200:
            raise ProtocolError(f"{url}: HTTP {resp.status_code}: {payload.get('error')}")
        return payload

    def handshake(self) -> dict:
        info = self._request("GET", "/v1/info")
        size = info.get("vocab_size")
        if size != self.spec.vocab_size:
            raise ConfigError(
                f"server vocab size {size} does not match configured {self.spec.vocab_size}"
            )
        return info

    def evaluate(self, tokens: Sequence[int], start: int) -> list:
        self._check_start(tokens, start)
        body = {"tokens": list(tokens), "start": start}
        if self._binary:
            body["encoding"] = "f64le"
        payload = self._request("POST", "/v1/score", body)
        if self._binary:
            m, count = _f64le_rows(payload.get("f64le"), self.spec.vocab_size)
        else:
            m, count = _json_rows(payload.get("dists"), self.spec.vocab_size)
        return _checked_rows(m, count, len(tokens) - start + 2)


class ScoringServer:
    """Threaded HTTP/1.1 server wrapping an in-process model.  It records
    every connection it accepts, so `close()` can end each one."""

    def __init__(self, model: LanguageModel, host: str = "127.0.0.1", port: int = 0):
        #: (handler thread, request socket) per connection, the finished
        #: ones dropped as new ones start
        self._connections: list = []
        server = self
        size = model.vocab.size

        class Server(ThreadingHTTPServer):
            def process_request(self, request, client_address):
                # runs on the serving thread, so once shutdown() returns
                # every connection is on the list
                thread = threading.Thread(target=self.process_request_thread,
                                          args=(request, client_address), daemon=True)
                server._connections = [(t, s) for t, s in server._connections if t.is_alive()]
                server._connections.append((thread, request))
                thread.start()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # headers and body go out in two writes; with Nagle on, the
            # second waits for the client's delayed ACK
            disable_nagle_algorithm = True

            def log_message(self, *args):
                pass

            def _reply(self, code: int, payload: dict):
                data = json.dumps(payload).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                if self.close_connection:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(data)

            def do_GET(self):
                if self.path != "/v1/info":
                    return self._reply(404, {"error": "unknown endpoint"})
                self._reply(200, {
                    "vocab_size": model.vocab.size,
                    "name": model.descriptor,
                    "deterministic": model.deterministic,
                    "encodings": list(ENCODINGS),
                })

            def do_POST(self):
                # read the body first: left unread on a kept-alive
                # connection it would be parsed as the next request
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    if length < 0:
                        raise ValueError(length)
                except ValueError:
                    # the body has no known end: answer, then hang up
                    self.close_connection = True
                    return self._reply(400, {"error": "invalid Content-Length"})
                data = self.rfile.read(length)
                if self.path != "/v1/score":
                    return self._reply(404, {"error": "unknown endpoint"})
                try:
                    req = json.loads(data)
                    tokens, start = req["tokens"], req["start"]
                except (ValueError, RecursionError, TypeError, KeyError):
                    # not JSON, nested too deep to parse, not an object, or a key missing
                    return self._reply(400, {"error": "a score request is a JSON "
                                                      "object with tokens and start"})
                # bools are ints to Python but not token ids or positions
                if not (type(tokens) is list
                        and all(type(t) is int and 0 <= t < size for t in tokens)):
                    return self._reply(400, {"error": f"tokens must be a list of "
                                                      f"token ids in [0, {size})"})
                if type(start) is not int:
                    return self._reply(400, {"error": "start must be an int"})
                try:
                    encoding = req.get("encoding", "json")
                    if encoding not in ENCODINGS:
                        raise ContractViolation(f"unknown encoding {encoding!r}")
                    m = np.array(model.evaluate(tokens, start), dtype=np.float64)
                    finite = np.isfinite(m).all(axis=1)
                    if not finite.all():
                        # NaN and Infinity have no JSON spelling
                        bad = int(np.argmin(finite))
                        return self._reply(500, {"error": f"malformed distribution at row "
                                                          f"{bad}: non-finite value"})
                    if encoding == "f64le":
                        raw = np.ascontiguousarray(m, dtype="<f8").tobytes()
                        reply = {"f64le": base64.b64encode(raw).decode("ascii")}
                    else:
                        reply = {"dists": m.tolist()}
                except ContractViolation as err:
                    return self._reply(400, {"error": str(err)})
                except Exception as err:  # noqa: BLE001 - wire boundary
                    return self._reply(500, {"error": str(err)})
                self._reply(200, reply)

        self._httpd = Server((host, port), Handler)
        # shutdown() waits for the loop's next poll
        self._thread = threading.Thread(target=self._httpd.serve_forever, args=(0.05,),
                                        daemon=True)
        self._thread.start()
        self.url = f"http://{host}:{self._httpd.server_address[1]}"

    def close(self):
        """Stops accepting, which takes at most one 0.05 s poll of the serving
        loop, hangs up every kept-alive connection and waits for every
        handler thread."""
        self._httpd.shutdown()
        for _, conn in self._connections:
            # a handler still setting up reads EOF at once
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed
                pass
        for thread, _ in self._connections:
            thread.join()
        self._httpd.server_close()
        self._thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve_model(model: LanguageModel, host: str = "127.0.0.1", port: int = 0) -> ScoringServer:
    return ScoringServer(model, host, port)

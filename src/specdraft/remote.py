"""HTTP client implementing the model interface against an external scoring
server, plus a threaded stub server that exposes any in-process model over
the same wire protocol for testing.

Protocol: GET /v1/info -> {"vocab_size": int, "name": str, "deterministic":
bool}; POST /v1/score with {"tokens": [...], "start": int} ->
{"dists": [[...], ...]}.  Errors carry {"error": str}.  Replies are strict
JSON: a non-finite row from the served model becomes a 500 error.
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence

import numpy as np
import requests

from .core import ConfigError, ContractViolation, LanguageModel, Vocab

ROW_SUM_TOL = 1e-6


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


class RemoteModel(LanguageModel):
    """Scores token sequences by calling a remote server; one request per
    evaluate call, retried per the spec's budget (scoring is idempotent)."""

    def __init__(self, spec: RemoteModelSpec, vocab: Optional[Vocab] = None):
        self.spec = spec
        self._session = requests.Session()
        info = self.handshake()
        if vocab is None:
            vocab = Vocab(tuple(f"<{i}>" for i in range(spec.vocab_size)))
        super().__init__(vocab, spec.cost_weight, spec.descriptor)
        self.deterministic = bool(info.get("deterministic", True))
        self.server_name = info.get("name", "")

    def _request(self, method: str, path: str, body=None) -> dict:
        url = self.spec.base_url.rstrip("/") + path
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
        payload = self._request("POST", "/v1/score",
                                {"tokens": list(tokens), "start": start})
        rows = payload.get("dists")
        expected = len(tokens) - start + 2
        if not isinstance(rows, list) or len(rows) != expected:
            raise ProtocolError(
                f"expected {expected} distributions, got "
                f"{len(rows) if isinstance(rows, list) else type(rows).__name__}"
            )
        out = []
        for i, row in enumerate(rows):
            v = np.asarray(row, dtype=np.float64)
            if (v.shape != (self.spec.vocab_size,) or not np.all(np.isfinite(v))
                    or np.any(v < 0)):
                raise ProtocolError(f"malformed distribution at row {i}")
            total = float(v.sum())
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise ProtocolError(f"row {i} sums to {total}, outside tolerance")
            out.append(v / total)
        return out


class ScoringServer:
    """Threaded HTTP server wrapping an in-process model."""

    def __init__(self, model: LanguageModel, host: str = "127.0.0.1",
                 port: int = 0, deterministic: Optional[bool] = None):
        if deterministic is None:
            deterministic = getattr(model, "deterministic", True)
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _send(self, code: int, body: str):
                data = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def _reply(self, code: int, payload: dict):
                self._send(code, json.dumps(payload))

            def do_GET(self):
                if self.path != "/v1/info":
                    return self._reply(404, {"error": "unknown endpoint"})
                self._reply(200, {
                    "vocab_size": model.vocab.size,
                    "name": model.descriptor,
                    "deterministic": deterministic,
                })

            def do_POST(self):
                if self.path != "/v1/score":
                    return self._reply(404, {"error": "unknown endpoint"})
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    req = json.loads(self.rfile.read(length))
                    dists = model.evaluate(req["tokens"], req["start"])
                    try:
                        # NaN and Infinity have no JSON spelling
                        body = json.dumps({"dists": [[float(x) for x in d] for d in dists]},
                                          allow_nan=False)
                    except ValueError:
                        bad = next(i for i, d in enumerate(dists) if not np.all(np.isfinite(d)))
                        return self._reply(500, {"error": f"malformed distribution at row "
                                                          f"{bad}: non-finite value"})
                except ContractViolation as err:
                    return self._reply(400, {"error": str(err)})
                except Exception as err:  # noqa: BLE001 - wire boundary
                    return self._reply(500, {"error": str(err)})
                self._send(200, body)

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        self.url = f"http://{host}:{self._httpd.server_address[1]}"

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve_model(model: LanguageModel, host: str = "127.0.0.1", port: int = 0,
                deterministic: Optional[bool] = None) -> ScoringServer:
    return ScoringServer(model, host, port, deterministic)

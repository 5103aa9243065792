"""HTTP scoring client, stub server, and wire-transparency checks."""
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
import requests

from specdraft.analytics import ConstantModel
from specdraft.cascade import CascadeConfig, KMatrix, generate
from specdraft.core import ConfigError, ContractViolation, RandomSource, Vocab, normalize
from specdraft.kernel import DecodeMode
from specdraft.remote import (
    ProtocolError,
    RemoteModel,
    RemoteModelSpec,
    RemoteUnavailable,
    ScoringServer,
    serve_model,
)
from specdraft.statlm import train_ngram

V = Vocab(tuple(f"<{i}>" for i in range(8)))


def _toy_model(descriptor="toy"):
    corpus = [0, 1, 2, 3, 0, 1, 2, 4, 0, 1, 5, 3, 0, 1, 2, 3]
    return train_ngram(corpus, 3, V, descriptor=descriptor)


def test_uniform_stub_round_trip():
    model = ConstantModel(np.ones(4))
    with serve_model(model) as server:
        spec = RemoteModelSpec(server.url, vocab_size=4)
        remote = RemoteModel(spec)
        dists = remote.evaluate([0, 1], 2)
        assert len(dists) == 2
        for d in dists:
            assert np.allclose(d, 0.25)


def test_client_side_start_check():
    model = ConstantModel(np.ones(4))
    with serve_model(model) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=4))
        with pytest.raises(ContractViolation):
            remote.evaluate([0, 1], 5)


def test_handshake_vocab_mismatch():
    model = ConstantModel(np.ones(4))
    with serve_model(model) as server:
        with pytest.raises(ConfigError, match="4"):
            RemoteModel(RemoteModelSpec(server.url, vocab_size=10))


def test_handshake_reports_determinism():
    model = ConstantModel(np.ones(4))
    with serve_model(model, deterministic=False) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=4))
        assert remote.deterministic is False
        # the greedy engine records a warning for such a model
        _, trace = generate(CascadeConfig(remote, [], KMatrix([[1]]),
                                          DecodeMode.GREEDY, 2, 0), [0])
        assert trace.warnings


def test_unreachable_server():
    spec = RemoteModelSpec("http://127.0.0.1:9", vocab_size=4, timeout=0.2, retries=1)
    with pytest.raises(RemoteUnavailable):
        RemoteModel(spec)


class _BadRowModel(ConstantModel):
    """Returns rows violating the normalization tolerance."""

    def evaluate(self, tokens, start):
        return [np.full(self.vocab.size, 0.3) for _ in super().evaluate(tokens, start)]


class _NanRowModel(ConstantModel):
    """Returns rows with a NaN entry; the finite entries sum to 1."""

    def evaluate(self, tokens, start):
        return [np.array([np.nan, 0.5, 0.5]) for _ in super().evaluate(tokens, start)]


class _WrongCountModel(ConstantModel):
    def evaluate(self, tokens, start):
        return super().evaluate(tokens, start)[:-1] or [self._dist]


def test_protocol_error_on_bad_rows():
    model = _BadRowModel(np.ones(4))
    with serve_model(model) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=4))
        with pytest.raises(ProtocolError, match="sums to"):
            remote.evaluate([0], 1)


def test_protocol_error_on_nan_rows():
    model = _NanRowModel(np.ones(3))
    with serve_model(model) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=3))
        with pytest.raises(ProtocolError, match="malformed"):
            remote.evaluate([0], 1)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_server_replies_strict_json_on_nan_rows():
    with serve_model(_NanRowModel(np.ones(3))) as server:
        resp = requests.post(server.url + "/v1/score", json={"tokens": [0], "start": 1},
                             timeout=10)
    assert resp.status_code == 500
    payload = json.loads(resp.text, parse_constant=_reject_constant)
    assert payload["error"].startswith("malformed distribution")


class _NanWireHandler(BaseHTTPRequestHandler):
    """A non-compliant server: writes NaN into the score rows."""

    def log_message(self, *args):
        pass

    def _send(self, body):
        data = body.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        self._send(json.dumps({"vocab_size": 3, "name": "nan", "deterministic": True}))

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self._send('{"dists": [[NaN, 0.5, 0.5], [NaN, 0.5, 0.5]]}')


def test_client_rejects_nan_on_the_wire():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _NanWireHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        remote = RemoteModel(RemoteModelSpec(url, vocab_size=3))
        with pytest.raises(ProtocolError, match="malformed distribution at row 0"):
            remote.evaluate([0], 1)
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_protocol_error_on_row_count():
    model = _WrongCountModel(np.ones(4))
    with serve_model(model) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=4))
        with pytest.raises(ProtocolError, match="expected"):
            remote.evaluate([0, 1, 2], 1)


def test_server_rejects_bad_start_with_400():
    model = ConstantModel(np.ones(4))
    with serve_model(model) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=4))
        # bypass the client-side check to exercise the server's 400 path
        with pytest.raises(ProtocolError, match="400"):
            remote._request("POST", "/v1/score", {"tokens": [0], "start": 7})


def test_unknown_endpoint_404():
    model = ConstantModel(np.ones(4))
    with serve_model(model) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=4))
        with pytest.raises(ProtocolError, match="404"):
            remote._request("GET", "/v1/metrics")


def test_renormalization_within_tolerance():
    class _SlightlyOff(ConstantModel):
        def evaluate(self, tokens, start):
            return [d * (1 + 5e-7) for d in super().evaluate(tokens, start)]

    with serve_model(_SlightlyOff(np.ones(4))) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=4))
        d = remote.evaluate([0], 1)[0]
        assert abs(d.sum() - 1.0) < 1e-12


def test_wire_transparency_generation():
    local = _toy_model("draft")
    target = _toy_model("tgt")
    prompt = [0, 1]
    cfg_local = CascadeConfig(target, [local], KMatrix([[4]]), DecodeMode.SAMPLING,
                              max_new_tokens=24, seed=5)
    out_local, trace_local = generate(cfg_local, prompt)
    with serve_model(local) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=V.size,
                                             descriptor="draft"), vocab=V)
        cfg_remote = CascadeConfig(target, [remote], KMatrix([[4]]),
                                   DecodeMode.SAMPLING, max_new_tokens=24, seed=5)
        out_remote, trace_remote = generate(cfg_remote, prompt)
    assert out_remote == out_local
    assert trace_remote.calls_per_model == trace_local.calls_per_model
    assert [(s.level, s.proposed, s.accepted) for s in trace_remote.steps] == \
           [(s.level, s.proposed, s.accepted) for s in trace_local.steps]

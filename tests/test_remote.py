"""HTTP scoring client, stub server, and wire-transparency checks."""
import base64
import http.client
import json
import socket
import socketserver
import statistics
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np
import pytest
import requests
import urllib3

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


def test_vocab_must_match_spec_width():
    # a 2-piece vocabulary would label a 3-token server's ids 0..1 only
    model = ConstantModel(np.ones(3))
    with serve_model(model) as server:
        with pytest.raises(ConfigError, match="2 pieces"):
            RemoteModel(RemoteModelSpec(server.url, vocab_size=3), Vocab(("<a>", "<b>")))


def test_handshake_reports_determinism():
    model = ConstantModel(np.ones(4))
    model.deterministic = False  # the stub announces the served model's own flag
    with serve_model(model) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=4))
        assert remote.deterministic is False
        # the greedy engine records a warning for such a model
        _, trace = generate(CascadeConfig(remote, [], KMatrix([]),
                                          DecodeMode.GREEDY, 2, 0), [0])
        assert trace.warnings


def test_unreachable_server():
    spec = RemoteModelSpec("http://127.0.0.1:9", vocab_size=4, timeout=0.2, retries=1)
    with pytest.raises(RemoteUnavailable):
        RemoteModel(spec)


@pytest.mark.parametrize("field,value,named", [
    ("retries", -1, "retries -1 is not an integer >= 0"),
    ("retries", 1.5, "retries 1.5 is not an integer"),
    ("retries", True, "retries True is not an integer"),
    ("timeout", -1, "timeout -1 is not a finite number > 0"),
    ("timeout", 0, "timeout 0 is not a finite number > 0"),
    ("timeout", float("nan"), "timeout nan is not a finite number > 0"),
    ("timeout", float("inf"), "timeout inf is not a finite number > 0"),
    ("timeout", "10", "timeout '10' is not a number"),
], ids=["retries-negative", "retries-fraction", "retries-bool", "timeout-negative",
        "timeout-zero", "timeout-nan", "timeout-inf", "timeout-string"])
def test_spec_retries_and_timeout_are_checked_before_any_request(field, value, named):
    # retries -1 gave up with RemoteUnavailable before sending anything, and
    # timeout -1 surfaced as requests' own ValueError on the first request;
    # the unreachable address shows no request is sent before the check
    spec = RemoteModelSpec("http://127.0.0.1:9", vocab_size=4, **{field: value})
    with pytest.raises(ConfigError, match=f"remote model 'remote': {named}"):
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
    with _stub(_NanWireHandler) as url:
        remote = RemoteModel(RemoteModelSpec(url, vocab_size=3))
        with pytest.raises(ProtocolError, match="malformed distribution at row 0"):
            remote.evaluate([0], 1)


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


@contextmanager
def _stub(handler):
    """Runs a test-local HTTP/1.0 handler; yields its base URL."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _canned(info, reply, paths=None):
    """A stub that answers /v1/info with `info` and every score request
    with `reply`, recording each request path in `paths`."""

    class Handler(_NanWireHandler):
        def do_GET(self):
            if paths is not None:
                paths.append(self.path)
            self._send(json.dumps(info))

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            if paths is not None:
                paths.append(self.path)
            self._send(json.dumps(reply))
    return Handler


def _json_only(model, seen):
    """A peer of the baseline protocol: announces no encodings and always
    replies JSON rows; every score request body is recorded in `seen`."""

    class Handler(_NanWireHandler):
        def do_GET(self):
            self._send(json.dumps({"vocab_size": model.vocab.size, "name": "legacy",
                                   "deterministic": True}))

        def do_POST(self):
            req = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            seen.append(req)
            rows = model.evaluate(req["tokens"], req["start"])
            self._send(json.dumps({"dists": [[float(x) for x in r] for r in rows]}))
    return Handler


def test_binary_and_json_rows_are_bit_equal(monkeypatch):
    model = _toy_model()
    tokens = [0, 1, 2, 3, 0, 1, 2, 4, 0, 1]
    replies = []
    post = requests.Session.post

    def recording_post(self, *args, **kwargs):
        resp = post(self, *args, **kwargs)
        replies.append(resp.json())
        return resp
    monkeypatch.setattr(requests.Session, "post", recording_post)
    with serve_model(model) as server:
        binary = RemoteModel(RemoteModelSpec(server.url, vocab_size=V.size), vocab=V)
        rows_binary = [binary.evaluate(tokens, s) for s in range(1, len(tokens) + 2)]
    assert all(set(r) == {"f64le"} for r in replies)
    seen = []
    with _stub(_json_only(model, seen)) as url:
        plain = RemoteModel(RemoteModelSpec(url, vocab_size=V.size), vocab=V)
        rows_json = [plain.evaluate(tokens, s) for s in range(1, len(tokens) + 2)]
    assert seen and all("encoding" not in req for req in seen)
    for a, b in zip(rows_binary, rows_json):
        assert np.array_equal(np.stack(a), np.stack(b))
    local = [model.evaluate(tokens, s) for s in range(1, len(tokens) + 2)]
    for a, b in zip(rows_binary, local):
        assert np.array_equal(np.stack(a), np.stack(b) / np.stack(b).sum(axis=1)[:, None])


def test_server_encodes_rows_as_asked():
    model = _toy_model()
    body = {"tokens": [0, 1, 2], "start": 1}
    with serve_model(model) as server:
        info = requests.get(server.url + "/v1/info", timeout=10).json()
        plain = requests.post(server.url + "/v1/score", json=body, timeout=10)
        binary = requests.post(server.url + "/v1/score", json=dict(body, encoding="f64le"),
                               timeout=10)
        unknown = requests.post(server.url + "/v1/score", json=dict(body, encoding="f32"),
                                timeout=10)
    assert info["encodings"] == ["json", "f64le"]
    want = np.stack(model.evaluate(body["tokens"], body["start"]))
    assert np.array_equal(np.array(plain.json()["dists"]), want)
    raw = base64.b64decode(binary.json()["f64le"])
    assert np.array_equal(np.frombuffer(raw, dtype="<f8").reshape(want.shape), want)
    assert unknown.status_code == 400 and "f32" in unknown.json()["error"]


@pytest.mark.parametrize("encoding", ["json", "f64le"])
def test_served_ngram_sends_every_row(encoding):
    # an n-gram evaluate builds rows as they are read; the server reads all
    model = _toy_model()
    tokens = [0, 1, 2, 3, 0, 1, 2, 4, 0, 1]
    with serve_model(model) as server:
        for start in range(1, len(tokens) + 2):
            reply = requests.post(server.url + "/v1/score", timeout=10, json={
                "tokens": tokens, "start": start, "encoding": encoding}).json()
            want = np.stack([model.distribution(tokens[:p - 1])
                             for p in range(start, len(tokens) + 2)])
            got = (np.array(reply["dists"]) if encoding == "json" else
                   np.frombuffer(base64.b64decode(reply["f64le"]), dtype="<f8"))
            assert np.array_equal(got.reshape(want.shape), want)


def _b64(rows, cut=0):
    raw = np.array(rows, dtype="<f8").tobytes()
    return base64.b64encode(raw[:len(raw) - cut]).decode("ascii")


_ROW = [0.25, 0.25, 0.5]


@pytest.mark.parametrize("dists, f64le, message", [
    ("!!not base64!!", "!!not base64!!", "expected 2 distributions, got str"),
    ([_ROW], _b64([_ROW]), "expected 2 distributions, got 1"),
    ([_ROW, _ROW[:2]], _b64([_ROW, _ROW], cut=8), "malformed distribution at row 1"),
    ([[float("nan"), 0.5, 0.5], _ROW], _b64([[float("nan"), 0.5, 0.5], _ROW]),
     "malformed distribution at row 0"),
    ([_ROW, [-0.5, 1.0, 0.5]], _b64([_ROW, [-0.5, 1.0, 0.5]]),
     "malformed distribution at row 1"),
    ([_ROW, [0.3, 0.3, 0.3]], _b64([_ROW, [0.3, 0.3, 0.3]]),
     "row 1 sums to 0.8999999999999999, outside tolerance"),
], ids=["base64", "missing-row", "short-row", "nan", "negative", "off-sum"])
def test_hostile_f64le_reply_fails_like_its_json_counterpart(dists, f64le, message):
    info = {"vocab_size": 3, "name": "hostile", "deterministic": True}
    errors = []
    for handler in (_canned(info, {"dists": dists}),
                    _canned(dict(info, encodings=["json", "f64le"]), {"f64le": f64le})):
        with _stub(handler) as url:
            remote = RemoteModel(RemoteModelSpec(url, vocab_size=3))
            with pytest.raises(ProtocolError) as err:
                remote.evaluate([0], 1)
            errors.append(str(err.value))
    assert errors == [message, message]


_INFO = {"vocab_size": 3, "name": "hostile", "deterministic": True}


@pytest.mark.parametrize("info, reply", [
    ([_INFO], {"dists": [_ROW, _ROW]}),
    (_INFO, [_ROW, _ROW]),
    (_INFO, "dists"),
], ids=["info-list", "score-list", "score-string"])
def test_non_object_json_reply_is_a_protocol_error(info, reply):
    with _stub(_canned(info, reply)) as url:
        with pytest.raises(ProtocolError, match="non-object JSON reply"):
            RemoteModel(RemoteModelSpec(url, vocab_size=3)).evaluate([0], 1)


_NOT_A_REQUEST = "a score request is a JSON object with tokens and start"
_NOT_TOKENS = "tokens must be a list of token ids in [0, 4)"


@pytest.mark.parametrize("body, error", [
    ("{not json", _NOT_A_REQUEST),
    ("[" * 100_000, _NOT_A_REQUEST),
    ("[0, 1]", _NOT_A_REQUEST),
    ('"tokens"', _NOT_A_REQUEST),
    ('{"start": 1}', _NOT_A_REQUEST),
    ('{"tokens": [0, 1]}', _NOT_A_REQUEST),
    ('{"tokens": "ab", "start": 1}', _NOT_TOKENS),
    ('{"tokens": [0, 99], "start": 1}', _NOT_TOKENS),
    ('{"tokens": [0.5], "start": 1}', _NOT_TOKENS),
    ('{"tokens": [true, 1], "start": 1}', _NOT_TOKENS),
    ('{"tokens": [-1], "start": 1}', _NOT_TOKENS),
    ('{"tokens": [0, 1], "start": true}', "start must be an int"),
    ('{"tokens": [0, 1], "start": "1"}', "start must be an int"),
    ('{"tokens": [0, 1], "start": 1.0}', "start must be an int"),
], ids=["not-json", "too-deep", "list", "string", "no-tokens", "no-start",
        "tokens-string", "token-out-of-vocab", "token-float", "token-bool", "token-negative",
        "start-bool", "start-string", "start-float"])
def test_malformed_score_request_gets_400_and_keeps_the_connection(body, error):
    headers = {"Content-Type": "application/json"}
    with serve_model(ConstantModel(np.ones(4))) as server:
        url = urlsplit(server.url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.request("POST", "/v1/score", body=body, headers=headers)
            resp = conn.getresponse()
            assert resp.status == 400
            assert json.loads(resp.read()) == {"error": error}
            sock = conn.sock
            assert sock is not None
            conn.request("POST", "/v1/score", body=json.dumps({"tokens": [0, 1], "start": 1}),
                         headers=headers)
            resp = conn.getresponse()
            assert resp.status == 200
            assert len(json.loads(resp.read())["dists"]) == 3
            assert conn.sock is sock
        finally:
            conn.close()


def test_unknown_post_path_consumes_its_body():
    body = json.dumps({"tokens": [0, 1, 2], "start": 1})
    headers = {"Content-Type": "application/json"}
    with serve_model(ConstantModel(np.ones(4))) as server:
        url = urlsplit(server.url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.request("POST", "/v1/nope", body=body, headers=headers)
            resp = conn.getresponse()
            assert resp.status == 404
            assert json.loads(resp.read()) == {"error": "unknown endpoint"}
            sock = conn.sock
            assert sock is not None  # the server kept the connection open
            conn.request("POST", "/v1/score", body=body, headers=headers)
            resp = conn.getresponse()
            assert resp.status == 200
            assert len(json.loads(resp.read())["dists"]) == 4
            assert conn.sock is sock  # the same kept-alive connection
        finally:
            conn.close()


def test_evaluate_calls_share_one_connection(monkeypatch):
    opened = []
    create = urllib3.util.connection.create_connection

    def counting_create(*args, **kwargs):
        opened.append(args[0])
        return create(*args, **kwargs)
    monkeypatch.setattr(urllib3.util.connection, "create_connection", counting_create)
    with serve_model(_toy_model()) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=V.size), vocab=V)
        for _ in range(20):
            remote.evaluate([0, 1, 2], 1)
    assert len(opened) == 1


class _ThreadRecordingModel(ConstantModel):
    """Records the server threads that score with it."""

    def evaluate(self, tokens, start):
        self.threads.add(threading.current_thread())
        return super().evaluate(tokens, start)


def test_close_hangs_up_kept_alive_connections():
    model = _ThreadRecordingModel(np.ones(4))
    model.threads = set()
    server = serve_model(model)
    remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=4, timeout=2, retries=1))
    remote.evaluate([0], 1)
    closer = threading.Thread(target=server.close, daemon=True)
    closer.start()
    closer.join(timeout=10)
    assert not closer.is_alive()
    assert model.threads and not any(t.is_alive() for t in model.threads)
    with pytest.raises(RemoteUnavailable):
        remote.evaluate([0], 1)


def test_close_waits_for_late_handler_threads(monkeypatch):
    def handlers():
        return {t for t in threading.enumerate() if "process_request_thread" in t.name}
    setup = socketserver.StreamRequestHandler.setup

    def slow_setup(self):
        # the handler thread is still setting up when close() hangs up
        # its connection, so only the join makes close() wait for it
        time.sleep(1.0)
        setup(self)
    monkeypatch.setattr(socketserver.StreamRequestHandler, "setup", slow_setup)
    before = handlers()
    server = serve_model(ConstantModel(np.ones(4)))
    url = urlsplit(server.url)
    socks = [socket.create_connection((url.hostname, url.port), timeout=10)
             for _ in range(4)]
    try:
        deadline = time.monotonic() + 10
        while len(handlers() - before) < len(socks) and time.monotonic() < deadline:
            time.sleep(0.01)
        started = handlers() - before
        assert len(started) == len(socks)
        server.close()
        assert not any(t.is_alive() for t in started)
    finally:
        for sock in socks:
            sock.close()


def test_close_is_prompt():
    # each close() waits for one poll of serve_forever, 0.5 s by default
    t0 = time.perf_counter()
    for _ in range(10):
        with serve_model(ConstantModel(np.ones(4))) as server:
            RemoteModel(RemoteModelSpec(server.url, vocab_size=4))
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_invalid_content_length_gets_a_json_error(length):
    body = json.dumps({"tokens": [0, 1], "start": 1})
    headers = {"Content-Type": "application/json", "Content-Length": length}
    with serve_model(ConstantModel(np.ones(4))) as server:
        url = urlsplit(server.url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.request("POST", "/v1/score", body=body, headers=headers)
            resp = conn.getresponse()
            assert resp.status == 400
            # the body has no known end, so the server hangs up after it
            assert resp.getheader("Connection") == "close"
            assert json.loads(resp.read()) == {"error": "invalid Content-Length"}
        finally:
            conn.close()


def test_score_calls_do_not_stall():
    # a reply held back by Nagle's algorithm until the client's delayed
    # ACK took about 45 ms on every call but the first; the lower
    # quartile keeps a loaded machine's slow calls out of the check
    with serve_model(ConstantModel(np.ones(259))) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=259))
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            remote.evaluate(list(range(8)), 1)
            times.append(time.perf_counter() - t0)
    assert statistics.quantiles(times, n=4)[0] < 0.020


def test_environment_is_read_once(monkeypatch):
    calls = []
    for name in ("get_environ_proxies", "get_netrc_auth"):
        def counted(*args, _real=getattr(requests.utils, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(requests.utils, name, counted)
        monkeypatch.setattr(requests.sessions, name, counted)
    with serve_model(ConstantModel(np.ones(4))) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=4))
        built = len(calls)
        for _ in range(10):
            remote.evaluate([0, 1], 1)
    assert len(calls) == built


def test_environment_proxy_is_kept_after_construction(monkeypatch):
    for var in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(var, raising=False)
        monkeypatch.delenv(var.upper(), raising=False)
    info = {"vocab_size": 3, "name": "proxy", "deterministic": True}
    paths = []
    with _stub(_canned(info, {"dists": [_ROW, _ROW]}, paths)) as proxy:
        monkeypatch.setenv("http_proxy", proxy)
        # nothing listens on port 9: every request must go through the proxy
        remote = RemoteModel(RemoteModelSpec("http://127.0.0.1:9", vocab_size=3,
                                             timeout=2, retries=0))
        monkeypatch.delenv("http_proxy")
        assert remote._session.proxies["http"] == proxy
        remote.evaluate([0], 1)
    assert paths == ["http://127.0.0.1:9/v1/info", "http://127.0.0.1:9/v1/score"]

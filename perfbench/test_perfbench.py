"""Checks on the benchmark itself: its output checks are live, its counts
repeat, and its traced run sees every layer call.

    python3 -m pytest -q perfbench
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the sources on sys.path)
import workloads  # noqa: E402
from layers import Tracer  # noqa: E402
from specdraft import cascade, kernel  # noqa: E402


def small(cls, n=3):
    w = cls()
    w.requests = n
    return w, w.make_requests(seed=1)


def corrupt_second(generate):
    calls = []

    def wrapper(models, req):
        out, trace = generate(models, req)
        calls.append(1)
        if len(calls) == 2:
            out = out[:-1] + [(out[-1] + 1) % 259]
        return out, trace
    return wrapper


@pytest.mark.parametrize("cls", [workloads.CopyCascade, workloads.SdSampling])
def test_corrupted_output_is_failed(cls, monkeypatch):
    w, reqs = small(cls)
    monkeypatch.setattr(w, "generate", corrupt_second(w.generate))
    r = run.run_round(w, reqs)
    assert [e is not None for e in r.errors] == [False, True, False]
    _, problems = run.summarize([r, r, r], trace=False)
    assert problems and problems[0].startswith(run.CHECK_FAILED)


def test_sampled_check_invariants():
    w, reqs = small(workloads.SdSampling, n=1)
    m = w.setup()
    out, trace = w.generate(m, reqs[0])
    new = out[len(reqs[0].prompt):]
    stop = m.stop_tokens
    assert workloads.check_sampled(new, trace, w.max_new_tokens, stop) is None
    assert workloads.check_sampled(new[:-1], trace, w.max_new_tokens, stop) is not None
    assert workloads.check_sampled(new + [5], trace, w.max_new_tokens, stop) is not None


def test_rounds_repeat_counts_and_disagreement_is_a_problem():
    w, reqs = small(workloads.SdSampling)
    a, b = run.run_round(w, reqs), run.run_round(w, reqs)
    assert a.counts == b.counts and a.tokens > 0
    assert run.summarize([a, b, a], trace=False)[1] == []
    b.counts = dict(b.counts, target_calls=b.counts["target_calls"] + 1)
    assert "disagree" in run.summarize([a, b, a], trace=False)[1][0]


def test_trace_sees_both_review_bindings_and_restores_them():
    originals = (kernel.speculative_review, cascade.speculative_review, cascade.sd_generate)
    w, reqs = small(workloads.SdSampling)
    r = run.run_round(w, reqs, Tracer())
    assert (kernel.speculative_review, cascade.speculative_review,
            cascade.sd_generate) == originals
    # sd_step reviews through the kernel binding: one review per target call
    assert r.layers["kernel.review.calls"] == r.counts["target_calls"] > 0
    assert r.layers["core.propose.calls"] == r.counts["target_calls"]
    assert r.layers["statlm.mag_propose.calls"] == 0
    assert r.layers["statlm.train.busy_s"] > 0 and r.layers["bench.ingest.busy_s"] > 0


def test_remote_trace_splits_server_and_wire():
    w, reqs = small(workloads.RemoteTarget)
    r = run.run_round(w, reqs, Tracer())
    assert not any(r.errors)
    assert r.layers["remote.evaluate.calls"] == r.counts["target_calls"] > 0
    assert 0 < r.layers["remote.server_s"] < r.layers["remote.evaluate.busy_s"]
    assert r.layers["remote.wire_s"] > 0 and r.layers["remote.bytes"] > 0
    # the served n7 is timed as the server, not as a client-side n-gram call
    assert r.layers["statlm.ngram_evaluate.rows"] == r.layers["statlm.ngram_evaluate.calls"]


def test_refused_score_request_fails_the_request_not_the_run(monkeypatch):
    w, reqs = small(workloads.RemoteTarget)
    setup = w.setup

    def setup_then_stop_server():
        m = setup()
        m.close()
        return m
    monkeypatch.setattr(w, "setup", setup_then_stop_server)
    r = run.run_round(w, reqs)
    assert all(e.startswith("raised RemoteUnavailable") for e in r.errors)
    assert run.summarize([r, r, r], trace=False)[1] == []


def test_missing_program_exits_nonzero_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "REPO", tmp_path)
    assert run.main(["--workload", "sd-sampling", "--seed", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    w, reqs = small(workloads.SdSampling)
    rounds = [run.run_round(w, reqs), run.run_round(w, reqs, Tracer())]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, _ = run.summarize(rounds, trace)
        assert {k: v["unit"] for k, v in metrics.items()} == {
            m["name"]: m["unit"] for m in spec[key]}

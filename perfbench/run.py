"""The repository benchmark: closed-loop decode workloads over specdraft.

    python3 perfbench/run.py --workload copy-cascade --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client issues one request after the previous one completes.  A run is a
sequence of rounds; each round trains fresh models (so row caches start
cold), decodes the workload's fixed request list, then checks every output.
Rounds repeat until ``--seconds`` have passed and metrics are medians over
rounds.  Every round must reproduce the same counts and output digest; a run
whose rounds disagree reports ``"correct": false``.

With ``--trace 0`` the run reports end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced rounds and reports per-layer metrics from
the traced ones, plus the tracing overhead; the spans of the last traced
round are written, gzipped, to ``perfbench/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(REPO / "src"))

MIN_ROUNDS = 3
CHECK_FAILED = "wrong output: "
#: probe duration at reference host speed: the probe's median on a 2-vCPU
#: 2.0 GHz x86-64 VM, Python 3.11.7, numpy 2.4.6, in a quiet phase
PROBE_REF_S = 0.0010
#: probes taken on each side of set-up, which runs in one block
SETUP_PROBES = 10
#: a request's latency is scaled by the median probe within this many
#: requests of it, which follows drift better than one factor per round
PROBE_WINDOW = 30

END_TO_END = {
    "decode_tok_s": "tokens/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "target_calls_per_tok": "calls/token",
    "swi_proxy": "ratio",
}


def _program_present() -> bool:
    return all(p.exists() for p in (REPO / "src" / "specdraft" / "__init__.py",
                                    REPO / "data" / "train.txt",
                                    REPO / "data" / "eval.txt"))


def probe() -> float:
    """Time a fixed slice of pure-Python and small-numpy work, the two kinds
    the decode does.  On a shared 2-vCPU VM, host speed drifted by up to 50%
    over tens of seconds, and decode time followed the probe's (correlation
    0.95 over 2-second windows), so timings are scaled to reference speed by
    it.  The probe runs benchmark code only, so no program change moves it.
    It reads the thread's CPU clock, so that time spent waiting for the
    interpreter lock, held by the stub server's threads on remote-target,
    does not count as host slowness."""
    import numpy as np
    row = np.full(259, 1 / 259)
    t = time.thread_time()
    acc = 0
    for i in range(12000):
        acc += i * i
    v = row
    for _ in range(60):
        v = 0.75 * v + 0.25 * row
        acc += int(np.argmax(v))
    return time.thread_time() - t


@dataclass
class Round:
    traced: bool
    setup_s: float
    latencies: list
    errors: list            # per request: None, or why it failed
    counts: dict            # must repeat exactly on every round
    setup_probes: list      # probe durations just before and after set-up
    probes: list            # probe durations, one after each request
    layers: dict = field(default_factory=dict)

    @property
    def tokens(self) -> int:
        return self.counts["tokens"]

    @property
    def decode_s(self) -> float:
        return sum(self.latencies)

    @property
    def speed(self) -> float:
        """Host slowness during the round: 1.0 at reference speed, 1.3 when
        the probe takes 30% longer.  Timings divided by it are at reference
        speed."""
        return statistics.median(self.probes) / PROBE_REF_S

    def scaled_latencies(self) -> list:
        p = self.probes
        return [x * PROBE_REF_S / statistics.median(p[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
                for i, x in enumerate(self.latencies)]

    def scaled_setup_s(self) -> float:
        return self.setup_s * PROBE_REF_S / statistics.median(self.setup_probes)


def _counts(outs, traces) -> dict:
    """Counts and digest that the same code and seed must reproduce exactly."""
    from specdraft.analytics import swi
    from specdraft.cascade import GenerationTrace

    merged = GenerationTrace("n7")
    levels: dict = {}
    for t in traces:
        if t is None:
            continue
        merged.tokens_emitted += t.tokens_emitted
        for m, n in t.calls_per_model.items():
            merged.calls_per_model[m] = merged.calls_per_model.get(m, 0) + n
        merged.cost_weights.update(t.cost_weights)
        for s in t.steps:
            lv = levels.setdefault(s.level, [0, 0])
            lv[0] += s.proposed
            lv[1] += s.accepted
    tokens = merged.tokens_emitted
    counts = {
        "tokens": tokens,
        "target_calls": merged.calls_per_model.get("n7", 0),
        "target_calls_per_tok": merged.calls_per_model.get("n7", 0) / tokens if tokens else 0.0,
        # priced by each model's cost weight, as report.json prices its runs
        "swi_proxy": swi(merged, dict(merged.cost_weights)) if tokens else 0.0,
        "digest": hashlib.sha256(json.dumps(outs).encode()).hexdigest()[:16],
    }
    for i in range(3):
        proposed, accepted = levels.get(i, (0, 0))
        counts[f"cascade.level{i}.proposed"] = proposed
        counts[f"cascade.level{i}.accepted"] = accepted
        counts[f"cascade.level{i}.accept_ratio"] = accepted / proposed if proposed else 0.0
    return counts


def run_round(workload, requests, tracer=None) -> Round:
    """Set up, decode every request in turn, then check every output.

    The checks run after the timed decode, with tracing off, so that the
    reference decode warms no row cache that the timing sees."""
    clock = time.perf_counter
    setup_probes = [probe() for _ in range(SETUP_PROBES)]
    if tracer is not None:
        tracer.install()
    try:
        t0 = clock()
        models = workload.setup()
        setup_s = clock() - t0
        setup_probes += [probe() for _ in range(SETUP_PROBES)]
        if tracer is not None and models.served is not None:
            tracer.aliases[id(models.served)] = "remote.serve"
        try:
            outs, traces, errors, latencies, probes = [], [], [], [], []
            for i, req in enumerate(requests):
                if tracer is not None:
                    tracer.request = i
                t = clock()
                try:
                    out, trace = workload.generate(models, req)
                    err = None
                except Exception as exc:  # a failed request is counted, the run goes on
                    out, trace, err = None, None, f"raised {type(exc).__name__}: {exc}"
                latencies.append(clock() - t)
                probes.append(probe())
                outs.append(out)
                traces.append(trace)
                errors.append(err)
        except BaseException:
            models.close()
            raise
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        for i, req in enumerate(requests):
            if errors[i] is None:
                bad = workload.check(models, req, outs[i], traces[i])
                errors[i] = None if bad is None else CHECK_FAILED + bad
    finally:
        models.close()
    layers = tracer.layer_metrics() if tracer is not None else {}
    return Round(tracer is not None, setup_s, latencies, errors,
                 _counts(outs, traces), setup_probes, probes, layers)


def _percentile_ms(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def summarize(rounds, trace: bool) -> tuple:
    """(metrics, problems) of a run; problems make the run incorrect."""
    plain = [r for r in rounds if not r.traced]
    errors = [e for r in rounds for e in r.errors if e is not None]
    problems = sorted({e for e in errors if e.startswith(CHECK_FAILED)})
    ref = rounds[0].counts
    # a request that raised has no output to count, so only runs without
    # one can be held to repeating their counts
    if not errors and any(r.counts != ref for r in rounds):
        diff = {k for r in rounds for k in ref if r.counts[k] != ref[k]}
        problems.append(f"rounds of one seed disagree on {sorted(diff)}")
    if not trace:
        metrics = timings(plain, scaled=True)
        metrics.update({
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "target_calls_per_tok": ref["target_calls_per_tok"],
            "swi_proxy": ref["swi_proxy"],
        })
        return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}, problems
    traced = [r for r in rounds if r.traced]
    # counts repeat on every round; times are medians at reference speed
    metrics = dict(traced[0].layers)
    for k in metrics:
        if _unit(k) in ("s", "ms", "us"):
            metrics[k] = statistics.median(r.layers[k] / r.speed for r in traced)
    metrics.update({k: v for k, v in ref.items() if k.startswith("cascade.level")})
    untraced_s = statistics.median(sum(r.scaled_latencies()) for r in plain)
    metrics["trace.decode_s"] = statistics.median(sum(r.scaled_latencies()) for r in traced)
    metrics["trace.overhead_share"] = (metrics["trace.decode_s"] - untraced_s) / untraced_s
    return {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}, problems


def timings(rounds, scaled: bool) -> dict:
    """Rates and set-up are medians over rounds; latency percentiles are
    taken over the requests of all rounds pooled.  If ``scaled``, every time
    is at reference host speed."""
    lat = [r.scaled_latencies() if scaled else r.latencies for r in rounds]
    pooled = [x for xs in lat for x in xs]
    med = statistics.median
    return {
        "decode_tok_s": med(r.tokens / sum(x) for x, r in zip(lat, rounds)),
        "latency_p50_ms": _percentile_ms(pooled, 50),
        "latency_p90_ms": _percentile_ms(pooled, 90),
        "setup_s": med(r.scaled_setup_s() if scaled else r.setup_s for r in rounds),
    }


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"busy_s": "s", "self_s": "s", "server_s": "s", "wire_s": "s", "decode_s": "s",
            "mean_us": "us", "mean_ms": "ms", "bytes": "bytes", "rows": "count",
            "calls": "count", "proposed": "tokens", "accepted": "tokens",
            "accept_ratio": "ratio", "overhead_share": "ratio"}[suffix]


def _env() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg())}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    env = _env()
    requests = workload.make_requests(seed)
    rounds, tracer = [], None
    start = time.perf_counter()
    while (len(rounds) < (2 if trace else MIN_ROUNDS)
           or time.perf_counter() - start < seconds
           or (trace and len(rounds) % 2)):
        traced = trace and len(rounds) % 2 == 1
        tracer = Tracer() if traced else None
        rounds.append(run_round(workload, requests, tracer))
        r = rounds[-1]
        print(f"round {len(rounds)}{' traced' if traced else ''}: setup {r.setup_s:.3f} s, "
              f"decode {r.decode_s:.3f} s, {r.tokens / r.decode_s:.1f} tokens/s, "
              f"host speed {r.speed:.3f}, scaled {r.tokens / sum(r.scaled_latencies()):.1f} "
              f"tokens/s, failed {sum(e is not None for e in r.errors)}", flush=True)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload_name}-seed{seed}.jsonl.gz")
    metrics, problems = summarize(rounds, trace)
    env["loadavg_after"] = list(os.getloadavg())
    attempted = sum(len(r.errors) for r in rounds)
    failed = sum(e is not None for r in rounds for e in r.errors)
    c = rounds[0].counts
    print(f"workload {workload_name} seed {seed}: {len(rounds)} rounds of "
          f"{len(requests)} requests, closed loop, 1 client")
    print(f"requests attempted {attempted} succeeded {attempted - failed} failed {failed} "
          f"failed_share {failed / attempted:.4f}")
    print(f"per round: {c['tokens']} tokens, {c['target_calls']} target calls, "
          f"output digest {c['digest']}; this run: {len(rounds) * c['target_calls']} "
          f"target calls (on remote-target each is one HTTP score request and "
          f"one TCP connection)")
    print("env " + json.dumps(env))
    raw = timings([r for r in rounds if not r.traced], scaled=False)
    print("wall clock, not scaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
          + f"; host speed factor {statistics.median(r.speed for r in rounds):.3f}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    for p in problems:
        print("PROBLEM " + p)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a fresh process, so no model or cache is shared."""
    results = {}
    for name in ("copy-cascade", "sd-sampling", "remote-target"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["copy-cascade", "sd-sampling", "remote-target", "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not _program_present():
        print(f"specdraft sources or data not found under {REPO}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

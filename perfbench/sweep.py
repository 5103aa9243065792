"""Repeat benchmark runs and report each metric's median and quartile spread.

    python3 perfbench/sweep.py --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --workloads sd-sampling --against ../parent

Runs are interleaved (for each seed, every workload in turn, and with
``--against`` both checkouts, alternating which goes first) so that slow
drift in host speed lands on every workload and on both sides alike.  The
spread of a metric is (Q3 - Q1) / median over its runs, with the quartiles
of ``statistics.quantiles(values, n=4)``.  Every run is kept in the JSON
file given by ``--out``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("copy-cascade", "sd-sampling", "remote-target")


def one_run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} {workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["loadavg"] = os.getloadavg()[0]
    result["stdout"] = lines[:-1]
    return result


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=int,
                   default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--against", type=Path, default=None,
                   help="a second checkout to run alternately with this one")
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sides = [HERE.parent] + ([args.against.resolve()] if args.against else [])
    runs = []
    for i, seed in enumerate(range(lo, hi + 1)):
        for workload in args.workloads.split(","):
            for side in (sides if i % 2 == 0 else sides[::-1]):
                r = one_run(side, workload, seed, args.seconds, args.trace)
                r.update(side=str(side), workload=workload, seed=seed)
                runs.append(r)
                print(f"{side.name} {workload} seed {seed}: correct {r['correct']} "
                      f"failed {r['failed']}/{r['attempted']} load {r['loadavg']:.2f}",
                      file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    for side in sides:
        for workload in args.workloads.split(","):
            mine = [r for r in runs if r["side"] == str(side) and r["workload"] == workload]
            print(f"{side.name} {workload} ({len(mine)} runs)")
            for name in mine[0]["metrics"]:
                med, q1, q3, s = spread([r["metrics"][name]["value"] for r in mine])
                print(f"  {name:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                      f"  spread {s:7.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every workload over several seeds and report medians and spreads.

Usage (from the repository root):
    python3 bench/spread.py --seeds 1-10 [--workloads joint-long] [--out FILE]

Runs go round-robin over workloads, one seed at a time, so a slow phase of
the host falls on all workloads alike. For each end-to-end metric it prints
the median, the quartiles and the spread (interquartile range as a share of
the median) next to the metric's bound. With --out it also makes one traced
run per workload on the first seed and writes everything, including the
tracing overhead, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, spread
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["kernel"] = next(l for l in lines if l.startswith("reference kernel"))
    env = next(l for l in lines if l.startswith("environment "))
    result["environment"] = json.loads(env.partition(" ")[2])
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name, unit, _, bound in END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": unit, "median": statistics.median(values),
                     "q1": q1, "q3": q3, "spread": spread(values), "bound": bound}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    runs = {w: [] for w in args.workloads}
    for seed in seeds:
        for w in args.workloads:
            r = run_once(w, seed, args.seconds, 0)
            r["seed"] = seed
            runs[w].append(r)
            values = " ".join(f"{m}={v['value']:.4g}" for m, v in r["metrics"].items())
            print(f"{w} seed {seed}: correct={r['correct']} failed={r['failed']}/"
                  f"{r['attempted']} {values}; {r['kernel']}", file=sys.stderr)

    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for w, rs in runs.items():
        summary = summarize(rs)
        report["workloads"][w] = {"summary": summary, "runs": rs}
        print(f"\n{w}: correct {sum(r['correct'] for r in rs)}/{len(rs)}, "
              f"ops_failed {sum(r['failed'] for r in rs)}")
        for name, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "   <-- spread >= bound/3"
            print(f"  {name:16s} median {s['median']:12.6g} {s['unit']:4s} "
                  f"spread {s['spread']:.3f} (bound {s['bound']}){flag}")

    if args.out:
        for w in args.workloads:
            traced = run_once(w, seeds[0], args.seconds, 1)
            untraced = next(r for r in runs[w] if r["seed"] == seeds[0])
            t = traced["metrics"]["trace.op_ms_p50"]["value"]
            u = untraced["metrics"]["step_ms_p50"]["value"]
            report["workloads"][w]["traced"] = {
                "seed": seeds[0], "result": traced,
                "tracing_overhead": {"traced_op_ms_p50": t, "untraced_step_ms_p50": u,
                                     "share": t / u - 1}}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

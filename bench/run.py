#!/usr/bin/env python3
"""prefixasr benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root):
    python3 bench/run.py --workload pretrain-short --seed 1 --seconds 20 --trace 0

Runs set-up PROBES times in fresh processes and once more in the measuring
process, reporting the median as setup_s. The measuring process then runs
the workload's closed loop for --seconds and checks its outputs. With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a run with spans around every layer.
Exits 2 when the checkout has no prefixasr source to benchmark. See
bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
from checks import missing_metrics  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 2
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "note": "nothing pinned, no CPU governor change, no caches dropped; "
                "the host is shared, so times are scaled to a nominal host "
                "speed by the reference kernel (bench/speed.py)",
    }


def run_worker(args, probe: bool, timeout: float) -> tuple[dict, float, float]:
    """Run worker.py; returns its result and its set-up time from spawn,
    scaled to the nominal host speed and as wall time."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = result["first_op_monotonic"] - spawned - result["setup_bursts_s"]
    return result, wall * speed.NOMINAL_MS / result["setup_kernel_ms"], wall


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "prefixasr" / "__init__.py").is_file():
        print(f"no prefixasr source under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2

    env = environment()
    kernel_before = speed.kernel_median_ms()
    setups, setup_walls = [], []
    try:
        for _ in range(0 if args.trace else PROBES):
            _, setup, wall = run_worker(args, True, RUN_LIMIT_S)
            setups.append(setup)
            setup_walls.append(wall)
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        result, setup, wall = run_worker(args, False, remaining)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    setups.append(setup)
    setup_walls.append(wall)
    kernel_after = speed.kernel_median_ms()

    if args.trace:
        spec, values = PER_LAYER, result["per_layer"]
    else:
        spec, values = END_TO_END, dict(result["end_to_end"],
                                        setup_s=statistics.median(setups))
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, unit, *_ in spec}
    missing = missing_metrics(metrics, spec)
    if missing:
        print(f"metrics missing or not finite: {missing}", file=sys.stderr)
        return 1

    notes = result["notes"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {result['rounds']}  closed loop, 1 client")
    print(f"environment {json.dumps(env)}")
    print(f"reference kernel {kernel_before:.4f} ms before, {kernel_after:.4f} ms after "
          f"(nominal {speed.NOMINAL_MS} ms); times below are scaled to nominal")
    if not args.trace:
        print(f"setup samples (s) scaled {[round(s, 4) for s in setups]} "
              f"wall {[round(s, 4) for s in setup_walls]}")
        print(f"tail = p{notes['tail_percentile']} of {notes['samples']} ops; "
              f"wall step_ms p50 {notes['wall_step_ms_p50']:.4f} "
              f"tail {notes['wall_step_ms_tail']:.4f}; "
              f"speed factor median {notes['speed_factor_p50']:.4f}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"ops {result['attempted']}  ops_failed {result['failed']}")
    print(f"check {json.dumps(result['check'])}")
    if "spans_file" in result:
        print(f"spans written to {result['spans_file']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record the final train loss of one training round per seed.

Usage (from the repository root):
    python3 bench/record_reference.py --seeds 64 [--workloads joint-long]

Writes bench/reference_losses.json, which checks.py compares every training
run against. Rerun it, in its own change, whenever the workloads' settings
change; a change that only claims a speed-up must not rerun it.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import worker  # noqa: E402
from checks import REFERENCE_PATH, load_reference  # noqa: E402
from tracing import Patcher  # noqa: E402
from workloads import WORKLOADS, settings  # noqa: E402


def final_loss(workload, seed: int, scratch: Path) -> float:
    work = Path(tempfile.mkdtemp(dir=scratch))
    patcher = Patcher()
    try:
        log = worker.OpLog(probe=False, tracer=None)
        out = worker.run_training(workload, seed, 0.0, work, log, patcher)
    finally:
        patcher.restore()
        shutil.rmtree(work)
    return out["check"]["final_loss"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=64,
                        help="record seeds 0 .. N-1")
    parser.add_argument("--workloads", nargs="*",
                        default=[w.name for w in WORKLOADS.values()
                                 if w.kind != "transcribe"])
    args = parser.parse_args(argv)
    scratch = worker.ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    for name in args.workloads:
        wl = WORKLOADS[name]
        losses = {}
        for seed in range(args.seeds):
            losses[str(seed)] = final_loss(wl, seed, scratch)
            print(f"{wl.name} seed {seed}: {losses[str(seed)]!r}", file=sys.stderr)
        q1, q2, q3 = statistics.quantiles(losses.values(), n=4)
        # reread so that recordings of different workloads can run at once
        table = load_reference()
        table[wl.name] = {"settings": settings(wl),
                          "reordered_rtol": (q3 - q1) / q2,
                          "final_loss": losses}
        REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
        print(f"wrote {wl.name} to {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Metric names, units and the statistics the benchmark reports.

An op is one unit of the closed loop: a training step on the training
workloads, one transcribed utterance on transcribe-mixed. ``BENCHMARK.json``
lists the same names; ``tests/test_bench.py`` keeps the two in step.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import speed

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("step_ms_p50", "ms", "lower", 0.2),
    ("step_ms_tail", "ms", "lower", 0.25),
    ("utt_ms_p50", "ms", "lower", 0.2),
    ("utt_ms_tail", "ms", "lower", 0.25),
    ("utts_per_s", "1/s", "higher", 0.2),
    ("audio_s_per_s", "s/s", "higher", 0.2),
    ("token_ms", "ms", "lower", 0.2),
]

# Functions and methods the traced run wraps, named <module>.<attribute>.
SPANS = [
    "numcore.backward", "numcore.adam_step", "numcore.clip_grad_norm",
    "encoder.forward", "ctc.ctc_loss", "bridge.forward",
    "declm.forward_mixed", "declm.greedy_decode",
    "frontend.load_audio", "frontend.log_mel",
    "trainer.prepare_corpus", "trainer.sample_batch",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "evalsuite.wer",
]
LAYERS = ["numcore", "encoder", "ctc", "bridge", "declm", "frontend",
          "trainer", "checkpoint", "evalsuite"]

# Counts taken at span boundaries: (metric, unit, better, per) where "call"
# averages over calls and "op" sums the calls inside ops and divides by ops.
SPAN_COUNTS = [
    ("numcore.backward.tape_nodes", "count", "lower", "call"),
    ("encoder.frames", "count", "lower", "op"),
    ("ctc.infeasible", "count", "lower", "op"),
    ("declm.greedy_decode.tokens", "count", "higher", "call"),
    ("trainer.sample_batch.utts", "count", "higher", "call"),
    ("trainer.sample_batch.audio_s", "s", "higher", "call"),
    ("checkpoint.save_checkpoint.bytes", "bytes", "lower", "call"),
]

PER_LAYER = (
    [(f"{s}.calls", "count", "lower") for s in SPANS]
    + [(f"{s}.ms", "ms", "lower") for s in SPANS]
    + [(m, u, b) for m, u, b, _ in SPAN_COUNTS]
    + [("declm.greedy_decode.ms_per_token", "ms", "lower")]
    + [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    + [("untraced.self_ms", "ms", "lower"),
       ("trace.op_ms_p50", "ms", "lower"),
       ("trace.spans_per_op", "count", "lower")]
)

# The tail is the highest of these percentiles with at least ten samples
# beyond it; at the benchmark's run length every workload lands on p90.
TAIL_LADDER = (50, 90, 99)
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> int:
    eligible = [p for p in TAIL_LADDER if n * (100 - p) / 100 >= TAIL_MIN_BEYOND]
    return max(eligible) if eligible else TAIL_LADDER[0]


def end_to_end(ops: list[dict]) -> tuple[dict, dict]:
    """Loop metrics from op records (all but setup_s and peak_rss_mb).

    Each op has start, end, utt_end (utterance latency end; equals end on
    training steps), kernel_ms (the reference burst before it), utts,
    audio_s and tokens. Times are scaled to the nominal host speed (see
    speed.py). Returns (values, notes).
    """
    factor = speed.factors([o["kernel_ms"] for o in ops])
    wall_ms = np.array([(o["end"] - o["start"]) * 1e3 for o in ops])
    step_ms = wall_ms * factor
    utt_ms = factor * np.array([(o["utt_end"] - o["start"]) * 1e3 / max(o["utts"], 1)
                                for o in ops])
    busy_s = step_ms.sum() / 1e3
    n = len(ops)
    p = tail_percentile(n)
    values = {
        "step_ms_p50": float(np.percentile(step_ms, 50)),
        "step_ms_tail": float(np.percentile(step_ms, p)),
        "utt_ms_p50": float(np.percentile(utt_ms, 50)),
        "utt_ms_tail": float(np.percentile(utt_ms, p)),
        "utts_per_s": sum(o["utts"] for o in ops) / busy_s,
        "audio_s_per_s": sum(o["audio_s"] for o in ops) / busy_s,
        "token_ms": step_ms.sum() / max(sum(o["tokens"] for o in ops), 1),
    }
    return values, {"tail_percentile": p, "samples": n,
                    "wall_step_ms_p50": float(np.percentile(wall_ms, 50)),
                    "wall_step_ms_tail": float(np.percentile(wall_ms, p)),
                    "speed_factor_p50": float(np.median(factor))}


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf

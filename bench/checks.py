"""Correctness checks, run outside the timed region; failures count as failed ops.

Training: every step has a finite loss, every round of a run repeats the
first exactly, and the final train loss matches the value recorded for the
seed in reference_losses.json (regenerate with record_reference.py).
Transcription: each hypothesis has exactly the requested length and equals
the argmax of a full ``DecoderLM.forward_mixed`` recompute over
[audio, bos, hyp[:-1]], an oracle for the KV-cache decode loop.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_losses.json"
# Same arithmetic as the recording: float32 results agree to rounding.
EXACT_RTOL = 1e-6
# Logits this close to the top one count as ties: reordered float32
# arithmetic may break a tie either way (rounding on these O(1) logits is
# about 1e-7), a real decode defect moves logits by orders of magnitude
# more. At the seed commit the cache and the recompute agree exactly.
TIE_TOL = 1e-5


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def compare_final_loss(final: float, workload: str, seed: int,
                       reference: dict, settings: dict) -> dict:
    """Final train loss against the recorded value for (workload, seed).

    Within EXACT_RTOL the arithmetic is unchanged. Within the workload's
    reordered_rtol, the spread of the recorded final losses across seeds
    (interquartile range over median), the arithmetic was reordered
    (batching, fusion). A seed with no recorded value is held to the
    recorded range widened by that spread.
    """
    table = reference.get(workload)
    if table is None or table.get("settings") != settings:
        return {"ok": False, "arithmetic": "no reference for these settings",
                "recorded": None}
    rtol = table["reordered_rtol"]
    recorded = table["final_loss"].get(str(seed))
    if recorded is None:
        values = list(table["final_loss"].values())
        lo, hi = min(values), max(values)
        ok = lo * (1 - rtol) <= final <= hi * (1 + rtol)
        return {"ok": ok, "recorded": None, "reordered_rtol": rtol,
                "arithmetic": "seed not recorded: checked against the range "
                              f"[{lo:.6g}, {hi:.6g}] of recorded seeds"}
    err = abs(final - recorded)
    if err <= EXACT_RTOL * abs(recorded):
        arithmetic = "exact (matches the recorded loss to float32 rounding)"
    elif err <= rtol * abs(recorded):
        arithmetic = "reordered (within the cross-seed spread)"
    else:
        arithmetic = "mismatch"
    return {"ok": arithmetic != "mismatch", "recorded": recorded,
            "reordered_rtol": rtol, "arithmetic": arithmetic}


def check_training(ops: list[dict], rounds: list[dict], workload: str,
                   seed: int, settings: dict, reference: dict | None = None) -> dict:
    """ops: step records with "round" and "loss"; rounds: per-round
    {"infeasible", "diverged"} from the trainer's result."""
    reference = load_reference() if reference is None else reference
    losses = defaultdict(list)
    for op in ops:
        losses[op["round"]].append(op["loss"])
    problems = []
    failed = 0
    for r, info in enumerate(rounds):
        bad = sum(1 for v in losses[r] if v is None or not math.isfinite(v))
        # a step without a finite loss is also an infeasible skip or the
        # diverged step, so take the larger tally to count no step twice
        failed += max(bad, info["infeasible"] + int(info["diverged"]))
        if bad or info["infeasible"] or info["diverged"]:
            problems.append(f"round {r}: {bad} steps without a finite loss, "
                            f"{info['infeasible']} infeasible, "
                            f"diverged={info['diverged']}")
        if r and losses[r] != losses[0]:
            failed += 1
            problems.append(f"round {r} did not repeat round 0 exactly")
    final = losses[0][-1] if losses[0] else None
    if final is None or not math.isfinite(final):
        verdict = {"ok": False, "arithmetic": "no final loss", "recorded": None}
    else:
        verdict = compare_final_loss(final, workload, seed, reference, settings)
    if not verdict["ok"]:
        failed += len(rounds)
        problems.append(f"final train loss {final!r}: {verdict['arithmetic']}, "
                        f"recorded {verdict['recorded']!r}")
    return {**verdict, "ok": not problems, "failed_ops": failed,
            "final_loss": final, "problems": problems}


def decode_matches_oracle(system, features, hyp: str, max_len: int):
    """(ok, smallest top-2 logit margin, reason) for one hypothesis.

    Each hypothesis token must be the argmax (up to TIE_TOL) of the logits a
    full recompute gives with the hypothesis itself as the text prefix."""
    from prefixasr.numcore import no_grad
    ids = system.tokenizer.encode(hyp)
    if len(ids) != max_len:
        return False, math.nan, f"length {len(ids)} != max_len {max_len}"
    with no_grad():
        audio = system.embed_audio(features)
        logits = system.lm.forward_mixed(
            audio, [system.lm.config.bos_id] + ids[:-1]).data
    rows = logits[audio.shape[0]:]
    top2 = np.sort(rows, axis=1)[:, -2:]
    margin = float((top2[:, 1] - top2[:, 0]).min())
    chosen = rows[np.arange(len(ids)), ids]
    if np.any(chosen < top2[:, 1] - TIE_TOL):
        return False, margin, "differs from the argmax of a full recompute"
    return True, margin, ""


def check_transcripts(system, entries, max_lens: list[int], ops: list[dict]) -> dict:
    """ops: utterance records with "index", "hyp" and, on a raise, "error"."""
    from prefixasr import frontend
    first_hyp: dict[int, str] = {}
    bad_index: dict[int, str] = {}
    for op in ops:
        if "error" in op:
            bad_index.setdefault(op["index"], op["error"])
        elif first_hyp.setdefault(op["index"], op["hyp"]) != op["hyp"]:
            bad_index.setdefault(op["index"], "hypothesis changed between passes")
    margins = []
    for index, hyp in sorted(first_hyp.items()):
        if index in bad_index:
            continue
        entry = entries[index]
        feats = frontend.log_mel(frontend.load_audio(entry.audio_path),
                                 system.normalizer)
        ok, margin, reason = decode_matches_oracle(system, feats, hyp, max_lens[index])
        margins.append(margin)
        if not ok:
            bad_index[index] = reason
    failed = sum(1 for op in ops if op["index"] in bad_index)
    return {"ok": not bad_index, "failed_ops": failed,
            "problems": [f"utterance {i}: {why}" for i, why in sorted(bad_index.items())],
            "min_top2_margin": min(margins) if margins else None,
            "utterances_checked": len(margins)}


def missing_metrics(metrics: dict, spec: list) -> list[str]:
    """Names in spec that metrics lacks or holds as a non-finite number."""
    out = []
    for name, *_ in spec:
        value = metrics.get(name, {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(name)
    return out

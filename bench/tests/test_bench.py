"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_metric_tables():
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
    assert [[m["name"], m["unit"], m["better"], m["bound"]]
            for m in SPEC["end_to_end"]] == [list(m) for m in metrics.END_TO_END]
    assert [[m["name"], m["unit"], m["better"]]
            for m in SPEC["per_layer"]] == [list(m) for m in metrics.PER_LAYER]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "transcribe-mixed",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in SPEC[key]]


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pretrain-short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_workload_inputs_follow_the_seed():
    wl = workloads.WORKLOADS["joint-long"]
    assert workloads.utterances(wl, 3) == workloads.utterances(wl, 3)
    assert workloads.utterances(wl, 3) != workloads.utterances(wl, 4)
    lengths = sorted(len(t) for t, _ in workloads.utterances(wl, 3))
    assert lengths == sorted(len(t) for t, _ in workloads.utterances(wl, 4))
    for text, _ in workloads.utterances(wl, 3):
        assert text == text.strip() and "  " not in text


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert metrics.tail_percentile(99) == 50
    assert metrics.tail_percentile(100) == 90
    assert metrics.tail_percentile(999) == 90
    assert metrics.tail_percentile(1000) == 99


def test_missing_or_non_finite_metric_fails():
    spec = metrics.END_TO_END
    full = {name: {"value": 1.0, "unit": unit} for name, unit, *_ in spec}
    assert checks.missing_metrics(full, spec) == []
    del full["token_ms"]
    full["setup_s"]["value"] = math.nan
    assert checks.missing_metrics(full, spec) == ["setup_s", "token_ms"]


SETTINGS = {"steps_per_round": 40}
REFERENCE = {"w": {"settings": SETTINGS, "reordered_rtol": 0.01,
                   "final_loss": {"3": 10.0, "4": 12.0}}}


def test_final_loss_check_classifies_arithmetic():
    exact = checks.compare_final_loss(10.0, "w", 3, REFERENCE, SETTINGS)
    assert exact["ok"] and exact["arithmetic"].startswith("exact")
    reordered = checks.compare_final_loss(10.05, "w", 3, REFERENCE, SETTINGS)
    assert reordered["ok"] and reordered["arithmetic"].startswith("reordered")
    unrecorded = checks.compare_final_loss(11.0, "w", 99, REFERENCE, SETTINGS)
    assert unrecorded["ok"] and unrecorded["recorded"] is None


@pytest.mark.parametrize("loss,seed,settings", [
    (10.5, 3, SETTINGS),                    # perturbed beyond the spread
    (10.0, 3, {"steps_per_round": 41}),     # recorded under other settings
    (20.0, 99, SETTINGS),                   # unrecorded seed, out of range
])
def test_final_loss_check_fails_on_perturbed_loss(loss, seed, settings):
    assert not checks.compare_final_loss(loss, "w", seed, REFERENCE, settings)["ok"]


def _steps(losses, round_=0):
    return [{"round": round_, "loss": v} for v in losses]


def test_training_check_fails_on_bad_steps():
    clean = {"infeasible": 0, "diverged": False}
    ok = checks.check_training(_steps([11.0, 10.0]) + _steps([11.0, 10.0], 1),
                               [clean, clean], "w", 3, SETTINGS, REFERENCE)
    assert ok["ok"] and ok["failed_ops"] == 0
    nan = checks.check_training(_steps([math.nan, 10.0]), [clean],
                                "w", 3, SETTINGS, REFERENCE)
    assert not nan["ok"] and nan["failed_ops"] == 1
    skipped = checks.check_training(_steps([None, 10.0]),
                                    [{"infeasible": 1, "diverged": False}],
                                    "w", 3, SETTINGS, REFERENCE)
    assert not skipped["ok"] and skipped["failed_ops"] == 1
    drift = checks.check_training(_steps([11.0, 10.0]) + _steps([11.0, 10.0001], 1),
                                  [clean, clean], "w", 3, SETTINGS, REFERENCE)
    assert not drift["ok"]


def test_recorded_reference_matches_current_settings():
    reference = checks.load_reference()
    for wl in workloads.WORKLOADS.values():
        if wl.kind == "transcribe":
            continue
        table = reference[wl.name]
        assert table["settings"] == workloads.settings(wl)
        assert 0 < table["reordered_rtol"] < 0.5
        final = table["final_loss"]["0"]
        assert checks.compare_final_loss(final, wl.name, 0, reference,
                                         workloads.settings(wl))["ok"]
        assert not checks.compare_final_loss(final * 1.5, wl.name, 0, reference,
                                             workloads.settings(wl))["ok"]


def test_decode_check_fails_on_corrupted_hypothesis():
    from prefixasr import frontend, toydata
    from prefixasr.config import load_config
    from prefixasr.system import AsrSystem
    from prefixasr.tokenizer import BOS, EOS, PAD, CharTokenizer

    text = "ab cd"
    tokenizer = CharTokenizer.from_texts([workloads.ALPHABET + " "])
    system = AsrSystem(load_config(), tokenizer, None, seed=0)
    system.lm.params["out.b"].data[[PAD, BOS, EOS]] = -1e4
    wav = frontend.Waveform(toydata.render_text(text).astype(np.float32))
    feats = frontend.log_mel(wav)
    hyp = system.transcribe(feats, max_len=len(text))
    ok, margin, _ = checks.decode_matches_oracle(system, feats, hyp, len(text))
    assert ok and margin >= 0
    i = len(hyp) // 2
    other = next(c for c in workloads.ALPHABET if c != hyp[i])
    corrupted = hyp[:i] + other + hyp[i + 1:]
    assert not checks.decode_matches_oracle(system, feats, corrupted, len(text))[0]
    assert not checks.decode_matches_oracle(system, feats, hyp[:-1], len(text))[0]


def test_patcher_rebinds_every_binding_and_restores():
    from prefixasr import numcore, trainer
    from prefixasr.numcore import optim
    orig = optim.adam_step
    patcher = tracing.Patcher()
    patcher.wrap(optim, "adam_step", lambda fn: "wrapped")
    assert optim.adam_step == trainer.adam_step == numcore.adam_step == "wrapped"
    patcher.restore()
    assert optim.adam_step is trainer.adam_step is numcore.adam_step is orig


def test_tracer_self_time_and_counts():
    tracer = tracing.Tracer()

    def leaf():
        return [1, 2, 3]

    traced_leaf = tracer.wrapper("declm.greedy_decode",
                                 after=lambda a, r: {"declm.greedy_decode.tokens": len(r)})(leaf)

    def parent():
        traced_leaf()
        traced_leaf()

    traced_parent = tracer.wrapper("encoder.forward")(parent)
    traced_parent()                 # outside any op: set-up
    for op in range(2):
        tracer.begin_op(op, 0.0)
        traced_parent()
    tracer.end_op(1.0)
    out = tracer.summary(num_ops=2)
    assert out["encoder.forward.calls"] == 1
    assert out["declm.greedy_decode.calls"] == 2
    assert out["declm.greedy_decode.tokens"] == 3
    assert out["trace.spans_per_op"] == 3
    assert out["ctc.ctc_loss.calls"] == 0 and out["ctc.ctc_loss.ms"] == 0
    spans = tracer.spans
    inner = sum((s[2] - s[1]) for s in spans if s[0] == "declm.greedy_decode" and s[4] is not None)
    outer = sum((s[2] - s[1]) for s in spans if s[0] == "encoder.forward" and s[4] is not None)
    assert out["encoder.self_ms"] == pytest.approx((outer - inner) * 1e3 / 2)

#!/usr/bin/env python3
"""Overfit experiment: memorize the 8-utterance tone corpus end to end.

Renders the corpus, CTC-pretrains the encoder, runs joint training, then
reports greedy-decode WER and an alignment heatmap for the first utterance.
A healthy build reaches WER 0.0 on the training set.

Usage: python scripts/run_overfit.py OUT_DIR [--seed N]
"""

import argparse
import time
from pathlib import Path

from prefixasr import evalsuite, frontend, trainer
from prefixasr.checkpoint import save_checkpoint
from prefixasr.config import load_config
from prefixasr.system import AsrSystem
from prefixasr.toydata import write_toy_corpus

OVERRIDES = [
    "encoder.dropout=0.0",
    "lm.dropout=0.0",
    "training.valid_fraction=0.0",
    "training.eval_interval=50",
    "training.mask_fraction=0.1",
    "training.pretrain.max_steps=400",
    "training.pretrain.warmup_steps=40",
    "training.joint.max_steps=400",
    "training.joint.warmup_steps=40",
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = write_toy_corpus(out / "corpus")
    entries = trainer.read_manifest(manifest)
    cfg = load_config(overrides=OVERRIDES + [f"training.seed={args.seed}"])

    t0 = time.time()
    pre = trainer.pretrain_encoder(entries, cfg, log_path=out / "pretrain_log.csv")
    save_checkpoint(out / "encoder.ckpt", pre.checkpoint)
    t1 = time.time()
    print(f"stage 1 (CTC): {pre.steps} steps, best loss {pre.best_valid:.4f}, "
          f"{t1 - t0:.0f}s, {1e3 * (t1 - t0) / max(pre.steps, 1):.1f} ms/step")

    joint = trainer.train_joint(entries, cfg, pre.checkpoint,
                                log_path=out / "train_log.csv")
    save_checkpoint(out / "model.ckpt", joint.checkpoint)
    t2 = time.time()
    print(f"stage 2 (joint): {joint.steps} steps, best loss {joint.best_valid:.4f}, "
          f"{t2 - t1:.0f}s, {1e3 * (t2 - t1) / max(joint.steps, 1):.1f} ms/step")

    system = AsrSystem.from_checkpoint(joint.checkpoint)
    report = evalsuite.eval_corpus(system, entries)
    print(report.to_table(), end="")
    (out / "report.json").write_text(report.to_json() + "\n")

    wav = frontend.load_audio(entries[0].audio_path)
    feats = frontend.log_mel(wav, system.normalizer)
    matrix = evalsuite.alignment_matrix(system, feats, entries[0].text)
    evalsuite.export_heatmap(matrix, out / "align_0000")
    mono = evalsuite.argmax_monotonicity(matrix.values)
    print(f"alignment argmax monotonicity: {mono:.2f}")
    print(f"total time: {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()

"""Command-line surface: pretrain, train, transcribe, eval, align,
inspect-ckpt.

Exit codes: 0 success, 1 internal error, 2 bad input (arguments, config,
manifest), 3 bad data file (unreadable audio or checkpoint; an `eval` with
nothing scorable). A stdout its reader closed early (`| head`) is 0: files
are written before any printing.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

# A threaded BLAS product may split its sums differently from a one-thread
# one, so a run's bits would depend on the host's CPU count. BLAS reads these
# when numpy is first imported, just below: one thread unless the user set
# any of them. BLAS_THREADS is the count it runs with, None for its default
# (one per CPU): OpenBLAS or MKL reads its own variable, else OMP_NUM_THREADS.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
BLAS_THREADS = next((os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ), None)

import numpy as np  # noqa: E402

from . import evalsuite, frontend, trainer  # noqa: E402
from .checkpoint import (CheckpointError, ModelCheckpoint, file_digest,  # noqa: E402
                         load_checkpoint, save_checkpoint)
from .config import ConfigError, changed_sections, load_config  # noqa: E402
from .system import AsrSystem  # noqa: E402

log = logging.getLogger("prefixasr")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_DATA = 3


class InputError(ValueError):
    """Bad arguments, config, or manifest (exit code 2)."""


def _load_run_config(args):
    cfg = load_config(args.config, args.set)
    if getattr(args, "seed", None) is not None:
        cfg.training.seed = args.seed
    return cfg


def _load_ckpt(path):
    if not Path(path).is_file():
        raise InputError(f"checkpoint not found (or not a file): {path}")
    return load_checkpoint(path)


def _out_dir(args) -> Path:
    out = Path(args.out_dir or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create --out-dir {out}: {exc}") from exc
    return out


def _log_adapters(ckpt: ModelCheckpoint) -> None:
    adapters = sum(t.size for t in ckpt.namespace("lora.").values())
    log.info("trainable LM parameters (adapters): %d", adapters)


def _finish_stage(result: trainer.TrainResult, ckpt_path: Path) -> int:
    """Save the stage's checkpoint with the numpy version and BLAS thread
    settings it ran under."""
    if result.diverged:
        log.warning("training diverged; keeping last good checkpoint")
    result.checkpoint.metadata["runtime"] = {"numpy": np.__version__,
                                             "blas_threads": BLAS_THREADS}
    save_checkpoint(ckpt_path, result.checkpoint)
    log.info("steps: %d  best validation loss: %.4f", result.steps, result.best_valid)
    log.info("wrote %s (digest %s)", ckpt_path, file_digest(ckpt_path)[:12])
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _load_run_config(args)
    entries = trainer.read_manifest(args.manifest)
    out = _out_dir(args)
    result = trainer.pretrain_encoder(entries, cfg, out_dir=out,
                                      state_path=out / "pretrain_state.ckpt",
                                      resume=args.resume)
    return _finish_stage(result, out / "encoder.ckpt")


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    encoder_ckpt = _load_ckpt(args.ckpt)
    if changed := changed_sections(encoder_ckpt.config, cfg):
        raise CheckpointError(f"{args.ckpt}: the encoder checkpoint was trained "
                              f"under a different {', '.join(changed)} config")
    entries = trainer.read_manifest(args.manifest)
    out = _out_dir(args)
    log.info("audio embedding rate: %.0f ms per embedding", evalsuite.embedding_ms(cfg))
    result = trainer.train_joint(entries, cfg, encoder_ckpt, out_dir=out,
                                 state_path=out / "train_state.ckpt", resume=args.resume)
    _log_adapters(result.checkpoint)
    return _finish_stage(result, out / "model.ckpt")


def cmd_transcribe(args) -> int:
    system = AsrSystem.from_checkpoint(_load_ckpt(args.ckpt))
    if not Path(args.audio).exists():
        raise InputError(f"audio file not found: {args.audio}")
    wav = frontend.load_audio(args.audio)
    feats = frontend.log_mel(wav, system.normalizer)
    print(system.transcribe(feats))
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = _load_ckpt(args.ckpt)
    system = AsrSystem.from_checkpoint(ckpt)
    if args.config is not None:
        if changed := changed_sections(ckpt.config, _load_run_config(args)):
            raise CheckpointError(f"{args.ckpt}: the checkpoint has a different "
                                  f"{', '.join(changed)} config than --config")
    entries = trainer.read_manifest(args.manifest)
    out = _out_dir(args)
    report = evalsuite.eval_corpus(system, entries)
    if not report.per_language:
        raise frontend.AudioError(f"no utterance scorable: {len(report.skipped)} skipped,"
                                  f" the first: {report.skipped[0]['reason']}")
    (out / "report.json").write_text(report.to_json() + "\n")
    (out / "report.txt").write_text(report.to_table())
    print(report.to_table(), end="")
    if report.skipped:
        log.warning("skipped %d utterances (reasons in report.json)", len(report.skipped))
    return EXIT_OK


def cmd_align(args) -> int:
    system = AsrSystem.from_checkpoint(_load_ckpt(args.ckpt))
    entries = trainer.read_manifest(args.manifest)
    if not 0 <= args.index < len(entries):
        raise InputError(f"--index {args.index} outside manifest of {len(entries)}")
    e = entries[args.index]
    wav = frontend.load_audio(e.audio_path)
    feats = frontend.log_mel(wav, system.normalizer)
    matrix = evalsuite.alignment_matrix(system, feats, e.text,
                                        utterance_id=f"utt{args.index}")
    out = _out_dir(args)
    csv_path, pgm_path = evalsuite.export_heatmap(matrix, out / f"align_{args.index:04d}")
    mono = evalsuite.argmax_monotonicity(matrix.values)
    log.info("alignment %dx%d, stride %.0f ms, argmax monotonicity %.2f",
             matrix.values.shape[0], matrix.values.shape[1],
             matrix.stride_ms, mono)
    print(csv_path)
    print(pgm_path)
    return EXIT_OK


def cmd_inspect_ckpt(args) -> int:
    ckpt = _load_ckpt(args.ckpt)
    print(f"config digest: {ckpt.digest}")
    print(f"file digest:   {file_digest(args.ckpt)}")
    if "stage" in ckpt.metadata:
        print(f"stage: {ckpt.metadata['stage']}")
    if "runtime" in ckpt.metadata:  # numpy version and BLAS threads of the run
        print(f"runtime: {json.dumps(ckpt.metadata['runtime'], sort_keys=True)}")
    if "train_state" in ckpt.metadata:
        state = trainer.load_train_state(ckpt.metadata["train_state"], args.ckpt)
        print("train_state:")
        for key in ("stage", "step", "best_valid", "infeasible"):
            print(f"  {key}: {getattr(state, key)}")
    total = 0
    for name in sorted(ckpt.tensors):
        arr = ckpt.tensors[name]
        total += arr.size
        print(f"  {name}  {arr.dtype}  {tuple(arr.shape)}")
    print(f"total parameters: {total}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefixasr",
        description="Speech recognition via audio-embedding-prefixed language modeling")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=False, manifest=False, ckpt=False, seed=False):
        if config:
            p.add_argument("--config", help="YAML run configuration")
            p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                           help="dotted config override, highest precedence")
        if manifest:
            p.add_argument("--manifest", required=True, help="JSONL utterance manifest")
        if ckpt:
            p.add_argument("--ckpt", required=True, help="checkpoint file")
        if seed:
            p.add_argument("--seed", type=int, help="override training seed")
        p.add_argument("--out-dir", help="output directory (default: cwd)")

    p = sub.add_parser("pretrain", help="stage 1: CTC-pretrain the encoder")
    common(p, config=True, manifest=True, seed=True)
    p.add_argument("--resume", action="store_true",
                   help="continue from the saved training state in --out-dir")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("train", help="stage 2: joint training from an encoder checkpoint")
    common(p, config=True, manifest=True, ckpt=True, seed=True)
    p.add_argument("--resume", action="store_true",
                   help="continue from the saved training state in --out-dir")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("transcribe", help="greedy-decode one audio file")
    common(p, ckpt=True)
    p.add_argument("audio", help="wav file (PCM16, up to 20 s)")
    p.set_defaults(fn=cmd_transcribe)

    p = sub.add_parser("eval", help="per-language WER report over a manifest")
    common(p, config=True, manifest=True, ckpt=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("align", help="export an audio/text alignment heatmap")
    common(p, manifest=True, ckpt=True)
    p.add_argument("--index", type=int, required=True,
                   help="utterance index within the manifest")
    p.set_defaults(fn=cmd_align)

    p = sub.add_parser("inspect-ckpt", help="print checkpoint digests and tensors")
    common(p, ckpt=True)
    p.set_defaults(fn=cmd_inspect_ckpt)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the exit-time flush would raise again: drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (InputError, ConfigError, trainer.ManifestError) as exc:
        log.error("%s", exc)
        return EXIT_BAD_INPUT
    except (frontend.AudioError, CheckpointError) as exc:
        log.error("%s", exc)
        return EXIT_BAD_DATA
    except Exception:  # pragma: no cover - defensive
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

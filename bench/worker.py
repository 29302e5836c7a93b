"""One benchmark process: set up a workload, run its closed loop, check it.

Started by run.py, never by hand. Prints one JSON object on stdout. With
--probe it stops at the first timed operation and reports only when that
came, so run.py can time set-up from process start several times per run.

Untraced runs hook only the op boundaries: ``trainer.sample_batch`` marks
the start of a training step and records its batch, ``Tensor.backward``
records the step's loss. Before every op, outside its time, one reference
burst (speed.py) samples the host's speed. Traced runs add a span around
every function in metrics.SPANS.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402

# Host speed during set-up, sampled at its start, after the imports and at
# the first op; run.py takes these bursts' own time out of the set-up time.
SETUP_BURSTS = speed.BurstLog()
SETUP_BURSTS.sample(3)

import checks  # noqa: E402
from metrics import end_to_end  # noqa: E402
from tracing import Patcher, Tracer, install_spans  # noqa: E402
from workloads import WORKLOADS, overrides, settings, utterances  # noqa: E402

import prefixasr  # noqa: E402
from prefixasr import checkpoint, evalsuite, frontend, toydata, trainer  # noqa: E402
from prefixasr.config import load_config  # noqa: E402
from prefixasr.frontend import FeatureNormalizer  # noqa: E402
from prefixasr.numcore.tensor import Tensor  # noqa: E402
from prefixasr.system import AsrSystem  # noqa: E402
from prefixasr.tokenizer import BOS, EOS, PAD, CharTokenizer  # noqa: E402

SETUP_BURSTS.sample(3)

# Output ids the transcribe model may never emit: without eos the decode
# runs to max_len, and pad/bos would vanish from the decoded text.
SUPPRESSED_IDS = (PAD, BOS, EOS)
SUPPRESSED_BIAS = -1e4


class FirstOp(Exception):
    """Raised in probe mode when the first timed operation starts."""


class OpLog:
    """The timeline of ops (training steps or utterances) in one run."""

    def __init__(self, probe: bool, tracer: Tracer | None):
        self.probe = probe
        self.tracer = tracer
        self.ops: list[dict] = []
        self.current: dict | None = None
        self.first_op_monotonic: float | None = None
        self.first_burst_ms: float | None = None
        self.round = 0

    def begin(self, **fields) -> dict:
        self.end()
        first = self.first_op_monotonic is None
        if first:
            self.first_op_monotonic = time.monotonic()
        burst = speed.kernel_ms()  # outside every op's time
        if first:
            self.first_burst_ms = burst
            if self.probe:
                raise FirstOp
        now = time.perf_counter()
        op = {"start": now, "end": now, "utt_end": now, "round": self.round,
              "kernel_ms": burst, "utts": 0, "audio_s": 0.0, "tokens": 0, **fields}
        self.ops.append(op)
        self.current = op
        if self.tracer is not None:
            self.tracer.begin_op(len(self.ops) - 1, now)
        return op

    def end(self) -> None:
        if self.current is None:
            return
        now = time.perf_counter()
        self.current["end"] = now
        if self.current["utt_end"] == self.current["start"]:
            self.current["utt_end"] = now
        self.current = None
        if self.tracer is not None:
            self.tracer.end_op(now)

    def elapsed(self) -> float:
        return time.perf_counter() - self.ops[0]["start"] if self.ops else 0.0


def install_step_hooks(patcher: Patcher, log: OpLog) -> None:
    def on_sample_batch(fn):
        def sample_batch(*args, **kwargs):
            op = log.begin(loss=None)
            batch = fn(*args, **kwargs)
            op["utts"] = len(batch)
            op["audio_s"] = sum(u.duration for u in batch)
            op["tokens"] = sum(len(u.entry.text) for u in batch)
            return batch
        return sample_batch

    def on_backward(fn):
        def backward(tensor, *args, **kwargs):
            if log.current is not None and tensor.data.size == 1:
                log.current["loss"] = float(tensor.data)
            return fn(tensor, *args, **kwargs)
        return backward

    patcher.wrap(trainer, "sample_batch", on_sample_batch)
    patcher.wrap(Tensor, "backward", on_backward)


def run_training(workload, seed: int, seconds: float, work: Path,
                 log: OpLog, patcher: Patcher) -> dict:
    manifest = toydata.write_toy_corpus(work / "corpus", utterances(workload, seed))
    entries = trainer.read_manifest(manifest)
    cfg = load_config(overrides=overrides(workload, seed))
    state_path = work / "state.ckpt"
    install_step_hooks(patcher, log)
    if workload.kind == "joint":
        encoder_ckpt = trainer.pretrain_encoder(entries, cfg).checkpoint

        def one_round():
            return trainer.train_joint(entries, cfg, encoder_ckpt,
                                       state_path=state_path)
    else:
        def one_round():
            return trainer.pretrain_encoder(entries, cfg, state_path=state_path)

    rounds = []
    while True:
        log.round = len(rounds)
        result = one_round()
        log.end()
        rounds.append({"steps": result.steps,
                       "infeasible": result.infeasible_skipped,
                       "diverged": result.diverged})
        if log.elapsed() >= seconds or result.diverged:
            break
    check = checks.check_training(log.ops, rounds, workload.name, seed,
                                  settings(workload))
    return {"ops": log.ops, "failed": check.pop("failed_ops"), "check": check}


def run_transcribe(workload, seed: int, seconds: float, work: Path,
                   log: OpLog, tracer: Tracer | None) -> dict:
    texts = utterances(workload, seed)
    manifest = toydata.write_toy_corpus(work / "corpus", texts)
    entries = trainer.read_manifest(manifest)
    tokenizer = CharTokenizer.from_texts([e.text for e in entries])
    normalizer = FeatureNormalizer.fit(
        [frontend.log_mel(frontend.load_audio(e.audio_path)).frames for e in entries])
    built = AsrSystem(load_config(), tokenizer, normalizer, seed=seed)
    built.lm.params["out.b"].data[list(SUPPRESSED_IDS)] = SUPPRESSED_BIAS
    model_path = work / "model.ckpt"
    checkpoint.save_checkpoint(model_path, built.to_checkpoint())
    system = AsrSystem.from_checkpoint(checkpoint.load_checkpoint(model_path))
    max_lens = [len(tokenizer.encode(e.text)) for e in entries]

    while True:
        for index, (entry, max_len) in enumerate(zip(entries, max_lens)):
            op = log.begin(index=index, tokens=max_len, utts=1, hyp=None)
            try:
                wav = frontend.load_audio(entry.audio_path)
                feats = frontend.log_mel(wav, system.normalizer)
                hyp = system.transcribe(feats, max_len=max_len)
                op["utt_end"] = time.perf_counter()
                evalsuite.wer(entry.text, hyp)
                op["hyp"] = hyp
                op["audio_s"] = wav.duration
            except Exception as exc:  # an utterance that raises is a failed op
                op["error"] = repr(exc)
            log.end()
        if log.elapsed() >= seconds:
            break
        log.round += 1

    if tracer is not None:
        tracer.enabled = False
    check = checks.check_transcripts(system, entries, max_lens, log.ops)
    return {"ops": log.ops, "failed": check.pop("failed_ops"), "check": check}


def setup_record(log: OpLog) -> dict:
    """When set-up ended, the bursts inside it, and the host speed around it."""
    return {"first_op_monotonic": log.first_op_monotonic,
            "setup_bursts_s": SETUP_BURSTS.seconds,
            "setup_kernel_ms": statistics.median(SETUP_BURSTS.ms + [log.first_burst_ms])}


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    log = OpLog(args.probe, tracer)
    patcher = Patcher()
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        if tracer is not None:
            install_spans(patcher, tracer)
        try:
            if workload.kind == "transcribe":
                out = run_transcribe(workload, args.seed, args.seconds, work, log, tracer)
            else:
                out = run_training(workload, args.seed, args.seconds, work, log, patcher)
        except FirstOp:
            return setup_record(log)
    finally:
        patcher.restore()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is using it

    ops = out["ops"]
    values, notes = end_to_end(ops)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        **setup_record(log),
        "attempted": len(ops),
        "failed": min(out["failed"], len(ops)),
        "correct": out["check"]["ok"],
        "check": out["check"],
        "end_to_end": values,
        "notes": notes,
        "rounds": log.round + 1,
    }
    if tracer is not None:
        result["per_layer"] = tracer.summary(len(ops), notes["speed_factor_p50"])
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if not Path(prefixasr.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"prefixasr imported from {prefixasr.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

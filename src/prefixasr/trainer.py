"""Two-stage training: CTC encoder pretraining, then joint next-token
training with text masking and language-balanced sampling.

Both stages run through one stage runner; a StageSpec holds what differs
between them. Each stage's loss is an AsrSystem method that returns the
(B,) per-utterance losses of a batch: ctc_losses or joint_losses.

Runs are deterministic for a given (manifest, config, seed): every random
draw comes from a stream keyed by (seed, stage, purpose, step), so resuming
from a saved state reproduces the exact trajectory of an uninterrupted run.

A per-utterance loss of +inf means the utterance has no CTC alignment; it is
dropped from the batch mean, and a batch with nothing left is skipped as
infeasible. Any other non-finite loss ends the run as diverged.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import frontend
from .checkpoint import (CheckpointError, ModelCheckpoint, check_tensors,
                         load_checkpoint, save_checkpoint)
from .config import RunConfig, StageSection, changed_sections
from .numcore import (AdamState, NonFiniteGradientError, Tensor, adam_step,
                      clip_grad_norm, no_grad, ops, schedule_lr)
from .numcore.rng import generator
from .system import ENCODER_TENSORS, AsrSystem
from .tokenizer import CharTokenizer, mask_tokens  # noqa: F401 (re-exported)


class ManifestError(ValueError):
    pass


@dataclass
class ManifestEntry:
    audio_path: str
    text: str
    language: str


def read_manifest(path) -> list[ManifestEntry]:
    """One JSON object per line: {audio_path, text, language}, all strings."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    fields = ("audio_path", "text", "language")
    entries = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}:{lineno}: bad JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ManifestError(f"{path}:{lineno}: expected a JSON object")
        missing = set(fields) - set(obj)
        if missing:
            raise ManifestError(f"{path}:{lineno}: missing fields {sorted(missing)}")
        if not all(isinstance(obj[k], str) for k in fields):
            raise ManifestError(f"{path}:{lineno}: {', '.join(fields)} must be strings")
        if not obj["text"]:
            raise ManifestError(f"{path}:{lineno}: empty transcript")
        entries.append(ManifestEntry(*(obj[k] for k in fields)))
    if not entries:
        raise ManifestError(f"{path}: empty manifest")
    return entries


def balanced_sampler(per_language_hours: dict[str, float], alpha: float,
                     rng: np.random.Generator) -> str:
    """Draw a language with probability proportional to hours**alpha."""
    langs = sorted(l for l, h in per_language_hours.items() if h > 0)
    if len(langs) < len(per_language_hours):
        import warnings
        empty = sorted(set(per_language_hours) - set(langs))
        warnings.warn(f"languages with no data excluded: {empty}")
    if not langs:
        raise ValueError("no language has data")
    # in log space from the heaviest language: for any finite alpha each weight
    # is in [0, 1] (an exponent that overflows is -inf) and the heaviest is 1
    log_hours = [math.log(per_language_hours[l]) for l in langs]
    ref = max(log_hours) if alpha >= 0 else min(log_hours)
    weights = np.array([math.exp(alpha * (h - ref)) for h in log_hours])
    return langs[rng.choice(len(langs), p=weights / weights.sum())]


@dataclass
class PreparedUtterance:
    entry: ManifestEntry
    features: frontend.FeatureMatrix  # log-mel; the stage runner normalizes it
    duration: float


def prepare_corpus(entries: list[ManifestEntry]) -> list[PreparedUtterance]:
    out = []
    for e in entries:
        wav = frontend.load_audio(e.audio_path)
        out.append(PreparedUtterance(e, frontend.log_mel(wav), wav.duration))
    return out


def split_indices(n: int, valid_fraction: float, seed: int):
    """Deterministic held-out split: none held out at fraction 0, never all."""
    order = generator(seed, "split").permutation(n)
    n_valid = min(int(round(n * valid_fraction)), n - 1)
    if valid_fraction > 0 and n > 1:
        n_valid = max(1, n_valid)
    return sorted(order[n_valid:].tolist()), sorted(order[:n_valid].tolist())


def hours_by_language(utts: list[PreparedUtterance]) -> dict[str, float]:
    hours: dict[str, float] = {}
    for u in utts:
        hours[u.entry.language] = hours.get(u.entry.language, 0.0) + u.duration / 3600.0
    return hours


def sample_batch(utts: list[PreparedUtterance], hours: dict[str, float],
                 alpha: float, batch_seconds: float,
                 rng: np.random.Generator) -> list[PreparedUtterance]:
    by_lang: dict[str, list[PreparedUtterance]] = {}
    for u in utts:
        by_lang.setdefault(u.entry.language, []).append(u)
    batch: list[PreparedUtterance] = []
    total = 0.0
    while True:
        lang = balanced_sampler(hours, alpha, rng)
        pool = by_lang[lang]
        u = pool[rng.integers(len(pool))]
        if batch and total + u.duration > batch_seconds:
            break
        batch.append(u)
        total += u.duration
        if total >= batch_seconds:
            break
    return batch


@dataclass
class TrainResult:
    checkpoint: ModelCheckpoint
    log: list[dict] = field(default_factory=list)
    best_valid: float = math.inf
    steps: int = 0
    infeasible_skipped: int = 0
    stopped_early: bool = False
    diverged: bool = False


@dataclass
class StageSpec:
    """What differs between the two training stages."""
    name: str
    section: StageSection
    system: AsrSystem
    params: dict[str, Tensor]  # what trains; every other system tensor is frozen
    # (features, transcripts, rng) -> the (B,) per-utterance losses; an rng
    # means training (dropout, token masking), None means validation
    batch_loss: Callable[[list[frontend.FeatureMatrix], list[str],
                          np.random.Generator | None], Tensor]
    keep: tuple[str, ...]  # prefixes of the system tensors its checkpoints hold

    def model_tensors(self) -> dict[str, np.ndarray]:
        return {k: v for k, v in self.system.all_tensors().items()
                if k.startswith(self.keep)}


@dataclass
class _TrainState:
    """Loop bookkeeping, saved as the "train_state" checkpoint metadata."""
    stage: str
    step: int = 0
    adam_step: int = 0
    best_valid: float = math.inf
    evals_since_best: int = 0
    log: list[dict] = field(default_factory=list)
    infeasible: int = 0


# what each _TrainState field annotation admits in a saved state (bool never)
_STATE_FIELD_TYPES = {"str": str, "int": int, "float": (int, float), "list[dict]": list}


def load_train_state(saved, state_path) -> _TrainState:
    """The saved "train_state" metadata with its keys and value types checked."""
    try:
        state = _TrainState(**saved)
    except TypeError as exc:
        raise CheckpointError(f"{state_path}: not a training state file ({exc})") from exc
    for f in fields(_TrainState):
        value = getattr(state, f.name)
        if isinstance(value, bool) or not isinstance(value, _STATE_FIELD_TYPES[f.type]):
            raise CheckpointError(f"{state_path}: train_state.{f.name} is {value!r}, "
                                  f"not {f.type}")
    return state


def _write_log(path, rows):
    if path is None:
        return
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["step", "lr", "train_loss", "valid_loss"])
        writer.writeheader()
        writer.writerows(rows)


def _chunk_by_duration(utts: list[PreparedUtterance],
                      seconds: float) -> list[list[PreparedUtterance]]:
    """Consecutive runs of utts holding at most `seconds` of audio each (a
    longer utterance forms a run of its own)."""
    chunks: list[list[PreparedUtterance]] = []
    total = 0.0
    for u in utts:
        if chunks and total + u.duration <= seconds:
            chunks[-1].append(u)
            total += u.duration
        else:
            chunks.append([u])
            total = u.duration
    return chunks


def _mean_feasible(losses: Tensor) -> Tensor | None:
    """Sum of the (B,) losses that are not +inf, times 1/n; None when every
    loss is +inf. A NaN is kept, so the step reads as diverged."""
    kept = np.flatnonzero(losses.data != math.inf)
    if len(kept) == 0:
        return None
    return ops.embedding(losses, kept).sum() * (1.0 / len(kept))


def _clipped_grads(params: list[Tensor], max_norm: float) -> list[np.ndarray]:
    """The gradient of each param (zeros where none arrived), clipped to
    max_norm in place. The caller drops the list after the optimizer step,
    so a gradient set never lives through the next step."""
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    clip_grad_norm(grads, max_norm)
    return grads


def _run_stage(entries: list[ManifestEntry], cfg: RunConfig, spec: StageSpec,
               log_path, state_path, resume: bool) -> TrainResult:
    """Optimize spec with validation tracking and resume. A system with no
    feature statistics under frontend.normalize gets them fitted on the
    training split. The CSV log at log_path is rewritten at every evaluation."""
    tcfg = cfg.training
    utts = prepare_corpus(entries)
    train_idx, valid_idx = split_indices(len(utts), tcfg.valid_fraction, tcfg.seed)
    train_utts = [utts[i] for i in train_idx]
    valid_utts = [utts[i] for i in valid_idx] or train_utts
    hours = hours_by_language(train_utts)
    valid_chunks = _chunk_by_duration(valid_utts, tcfg.batch_seconds)
    system = spec.system
    if cfg.frontend.normalize and system.normalizer is None:
        system.normalizer = frontend.FeatureNormalizer.fit(
            [u.features.frames for u in train_utts])
    for name, t in system.named_params().items():
        t.requires_grad = name in spec.params

    def batch_loss(batch: list[PreparedUtterance], rng=None):
        return spec.batch_loss([u.features for u in batch],
                               [u.entry.text for u in batch], rng)

    names = sorted(spec.params)
    params = [spec.params[n] for n in names]
    adam = AdamState()
    adam.ensure(params)
    state = _TrainState(spec.name)
    best: dict[str, np.ndarray] | None = None
    if resume and state_path is not None and Path(state_path).exists():
        saved = load_checkpoint(state_path)
        if changed := changed_sections(saved.config, cfg, skip=("training",)):
            raise CheckpointError(f"{state_path}: the saved state has a different "
                                  f"{', '.join(changed)} config than this run")
        state = load_train_state(saved.metadata.get("train_state", {}), state_path)
        if state.stage != spec.name:
            raise CheckpointError(f"{state_path}: the state is for stage "
                                  f"{state.stage!r}, not {spec.name!r}")
        model = {k: v.shape for k, v in spec.model_tensors().items()}
        best = saved.namespace("best.") or None  # absent until an evaluation improves
        groups = ("adam.m.", "adam.v.", "best.") if best else ("adam.m.", "adam.v.")
        expected = dict(model)
        expected.update({g + n: spec.params[n].shape for g in groups for n in names})
        check_tensors(expected, saved.tensors, state_path)
        system.load_tensors({k: saved.tensors[k] for k in model}, spec.keep)
        adam.step = state.adam_step
        for i, n in enumerate(names):
            adam.m[i][...] = saved.tensors["adam.m." + n]
            adam.v[i][...] = saved.tensors["adam.v." + n]
    if system.normalizer is not None:  # final here; a resumed stage has the saved ones
        for u in utts:
            u.features.frames = system.normalizer.apply(u.features.frames)

    def save_state():
        state.adam_step = adam.step
        tensors = spec.model_tensors()
        for n, m, v in zip(names, adam.m, adam.v):
            tensors["adam.m." + n] = m
            tensors["adam.v." + n] = v
        tensors.update({"best." + k: v for k, v in (best or {}).items()})
        save_checkpoint(state_path, system.to_checkpoint({"train_state": asdict(state)},
                                                         tensors))

    diverged = False
    max_steps = spec.section.max_steps
    while state.step < max_steps:
        state.step += 1
        lr = schedule_lr(spec.section, state.step)
        rng = generator(tcfg.seed, spec.name, "step", state.step)
        for p in params:
            p.grad = None
        batch = sample_batch(train_utts, hours, tcfg.sampling_alpha,
                             tcfg.batch_seconds, rng)
        loss = _mean_feasible(batch_loss(batch, rng))
        if loss is None:
            state.infeasible += 1
            continue
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            diverged = True
            break
        loss.backward()
        del loss  # free this step's graph before the next step builds its own
        try:
            adam_step(params, _clipped_grads(params, tcfg.grad_clip), adam, lr)
        except NonFiniteGradientError:
            state.infeasible += 1
            continue
        if state.step % tcfg.eval_interval == 0 or state.step == max_steps:
            with no_grad():
                vals = [v for chunk in valid_chunks
                        for v in batch_loss(chunk).data.tolist() if v != math.inf]
            valid = float(np.mean(vals)) if vals else math.inf
            state.log.append({"step": state.step, "lr": lr,
                              "train_loss": loss_val, "valid_loss": valid})
            if valid < state.best_valid:
                state.best_valid = valid
                best = {n: p.data.copy() for n, p in zip(names, params)}
                state.evals_since_best = 0
            else:
                state.evals_since_best += 1
            _write_log(log_path, state.log)
            if state_path is not None:
                save_state()
            if state.evals_since_best >= tcfg.early_stop_evals:
                break
    if best is None:
        state.best_valid = float("nan")
        best = {n: p.data.copy() for n, p in zip(names, params)}

    _write_log(log_path, state.log)
    best_model = {**spec.model_tensors(), **best}  # shares the frozen tensors, which never change
    return TrainResult(checkpoint=system.to_checkpoint({"stage": spec.name}, best_model),
                       log=state.log, best_valid=state.best_valid, steps=state.step,
                       infeasible_skipped=state.infeasible,
                       stopped_early=state.evals_since_best >= tcfg.early_stop_evals,
                       diverged=diverged)


def pretrain_encoder(entries: list[ManifestEntry], cfg: RunConfig,
                     log_path=None, state_path=None, resume: bool = False) -> TrainResult:
    """Stage 1: train encoder + CTC head; returns the best-validation model."""
    tokenizer = CharTokenizer.from_texts([e.text for e in entries])
    system = AsrSystem(cfg, tokenizer, seed=cfg.training.seed)
    params = {k: v for k, v in system.named_params().items() if k.startswith("encoder.")}
    spec = StageSpec("ctc_pretrain", cfg.training.pretrain, system, params,
                     system.ctc_losses, ENCODER_TENSORS)
    return _run_stage(entries, cfg, spec, log_path, state_path, resume)


def train_joint(entries: list[ManifestEntry], cfg: RunConfig,
                encoder_ckpt: ModelCheckpoint, log_path=None, state_path=None,
                resume: bool = False) -> TrainResult:
    """Stage 2: joint training of encoder + bridge + LoRA with text masking."""
    system = AsrSystem.from_encoder_checkpoint(cfg, encoder_ckpt, seed=cfg.training.seed)
    spec = StageSpec("joint", cfg.training.joint, system, system.joint_trainable(),
                     system.joint_losses, ("",))  # "" keeps every tensor
    return _run_stage(entries, cfg, spec, log_path, state_path, resume)

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fast_config
from prefixasr import ctc, frontend, trainer
from prefixasr.checkpoint import load_checkpoint, save_checkpoint
from prefixasr.numcore import Tensor, ops, param
from prefixasr.numcore.rng import generator
from prefixasr.system import AsrSystem
from prefixasr.tokenizer import NUM_SPECIALS, UNK


# -- manifest ----------------------------------------------------------------

def test_read_manifest(toy_corpus):
    manifest, entries = toy_corpus
    assert len(entries) == 8
    assert {e.language for e in entries} == {"aa", "bb"}
    assert all(e.text for e in entries)


def test_manifest_rejects_bad_json(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"audio_path": "a.wav"\n')
    with pytest.raises(trainer.ManifestError, match="bad JSON"):
        trainer.read_manifest(path)


def test_manifest_rejects_missing_fields(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"audio_path": "a.wav", "text": "hi"}) + "\n")
    with pytest.raises(trainer.ManifestError, match="language"):
        trainer.read_manifest(path)


def test_manifest_rejects_empty_file(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("\n\n")
    with pytest.raises(trainer.ManifestError, match="empty"):
        trainer.read_manifest(path)


# -- token masking -----------------------------------------------------------

def test_mask_tokens_rate():
    rng = np.random.default_rng(0)
    ids = list(range(NUM_SPECIALS, NUM_SPECIALS + 20)) * 1000
    masked = trainer.mask_tokens(ids, 0.25, rng)
    rate = sum(m == UNK for m in masked) / len(masked)
    assert abs(rate - 0.25) < 0.01


def test_mask_tokens_never_touches_specials():
    rng = np.random.default_rng(0)
    ids = [0, 1, 2, 3] * 500
    assert trainer.mask_tokens(ids, 1.0, rng) == ids


def test_mask_tokens_zero_fraction_is_identity():
    ids = list(range(4, 30))
    assert trainer.mask_tokens(ids, 0.0, np.random.default_rng(0)) == ids


def test_mask_tokens_leaves_input_list_unchanged():
    ids = list(range(4, 30))
    snapshot = list(ids)
    trainer.mask_tokens(ids, 0.9, np.random.default_rng(0))
    assert ids == snapshot


# -- balanced sampling -------------------------------------------------------

def test_sampler_power_law_ratio():
    rng = np.random.default_rng(0)
    hours = {"en": 100.0, "pl": 1.0}
    draws = [trainer.balanced_sampler(hours, 0.5, rng) for _ in range(20000)]
    ratio = draws.count("en") / draws.count("pl")
    assert ratio == pytest.approx(10.0, rel=0.15)  # sqrt(100/1)


def test_sampler_alpha_zero_is_uniform():
    rng = np.random.default_rng(1)
    hours = {"en": 500.0, "pl": 1.0, "de": 30.0}
    draws = [trainer.balanced_sampler(hours, 0.0, rng) for _ in range(15000)]
    for lang in hours:
        assert draws.count(lang) / len(draws) == pytest.approx(1 / 3, abs=0.02)


def test_sampler_warns_on_empty_language():
    with pytest.warns(UserWarning, match="no data"):
        lang = trainer.balanced_sampler({"en": 1.0, "xx": 0.0}, 0.5,
                                        np.random.default_rng(0))
    assert lang == "en"


def test_sampler_vanishing_weights_normalised_in_log_space():
    """hours**400 underflows to 0 for both languages, and 1e-4**-400
    overflows; the draws follow the power law in log space instead."""
    rng = np.random.default_rng(0)
    hours = {"aa": 1e-4, "bb": 2e-4}
    assert trainer.balanced_sampler(hours, 400.0, rng) == "bb"
    assert trainer.balanced_sampler(hours, -400.0, rng) == "aa"


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(hours=st.dictionaries(st.sampled_from(["aa", "bb", "cc", "dd"]),
                             st.floats(min_value=0.0, exclude_min=True,
                                       allow_infinity=False), min_size=1),
       alpha=st.floats(allow_nan=False, allow_infinity=False))
def test_sampler_any_finite_alpha_draws_a_language(hours, alpha):
    assert trainer.balanced_sampler(hours, alpha, np.random.default_rng(0)) in hours


def test_sampler_no_data_at_all():
    with pytest.raises(ValueError), pytest.warns(UserWarning, match="no data excluded"):
        trainer.balanced_sampler({"en": 0.0}, 0.5, np.random.default_rng(0))


# -- splits and batches ------------------------------------------------------

def test_split_deterministic_and_disjoint():
    a = trainer.split_indices(40, 0.1, seed=3)
    b = trainer.split_indices(40, 0.1, seed=3)
    assert a == b
    train, valid = a
    assert sorted(train + valid) == list(range(40))
    assert len(valid) == 4


def test_split_fraction_zero_keeps_everything():
    train, valid = trainer.split_indices(8, 0.0, seed=0)
    assert valid == [] and len(train) == 8


def test_split_small_corpus_still_holds_one_out():
    train, valid = trainer.split_indices(5, 0.05, seed=0)
    assert len(valid) == 1 and len(train) == 4


def test_split_never_holds_out_everything():
    train, valid = trainer.split_indices(8, 0.95, seed=0)
    assert len(train) >= 1 and sorted(train + valid) == list(range(8))
    assert trainer.split_indices(1, 0.95, seed=0) == ([0], [])


def test_sample_batch_respects_duration_cap(toy_corpus):
    _, entries = toy_corpus
    utts = trainer.prepare_corpus(entries)
    hours = trainer.hours_by_language(utts)
    for seed in range(5):
        rng = generator(seed, "batch")
        batch = trainer.sample_batch(utts, hours, 0.5, 3.0, rng)
        total = sum(u.duration for u in batch)
        assert batch
        # the final utterance may overshoot the cap; its predecessors may not
        assert total - batch[-1].duration < 3.0


def test_hours_by_language(toy_corpus):
    _, entries = toy_corpus
    utts = trainer.prepare_corpus(entries)
    hours = trainer.hours_by_language(utts)
    assert set(hours) == {"aa", "bb"}
    total = sum(u.duration for u in utts) / 3600.0
    assert sum(hours.values()) == pytest.approx(total)


# -- training loops ----------------------------------------------------------

@pytest.fixture(scope="module")
def pretrain_result(toy_corpus):
    _, entries = toy_corpus
    return trainer.pretrain_encoder(entries, fast_config()), entries


def test_pretrain_loss_decreases(pretrain_result):
    result, _ = pretrain_result
    assert result.steps == 30
    assert not result.diverged
    losses = [row["valid_loss"] for row in result.log]
    assert losses[-1] < losses[0]
    assert result.best_valid == min(losses)


def test_pretrain_checkpoint_contents(pretrain_result):
    result, _ = pretrain_result
    ckpt = result.checkpoint
    assert ckpt.metadata["stage"] == "ctc_pretrain"
    assert "tokenizer" in ckpt.metadata
    # encoder and feature statistics only: no bridge, LM or adapter tensors
    system = AsrSystem.from_encoder_checkpoint(fast_config(), ckpt)
    assert set(ckpt.tensors) == ({"encoder." + k for k in system.encoder.params}
                                 | {"frontend.mel_mean", "frontend.mel_std"})


def test_pretrain_is_deterministic(toy_corpus, pretrain_result):
    result, entries = pretrain_result
    again = trainer.pretrain_encoder(entries, fast_config())
    for name, arr in result.checkpoint.tensors.items():
        np.testing.assert_array_equal(again.checkpoint.tensors[name], arr)


def test_each_utterance_is_normalized_once(toy_corpus, monkeypatch):
    _, entries = toy_corpus
    calls = []
    apply = frontend.FeatureNormalizer.apply

    def counting_apply(self, frames):
        calls.append(frames.shape)
        return apply(self, frames)

    monkeypatch.setattr(frontend.FeatureNormalizer, "apply", counting_apply)
    result = trainer.pretrain_encoder(entries, fast_config(["training.pretrain.max_steps=3"]))
    assert result.steps == 3
    assert len(calls) == len(entries)


def test_resumed_stage_normalizes_with_the_saved_statistics(toy_corpus, tmp_path,
                                                            monkeypatch):
    _, entries = toy_corpus
    state = tmp_path / "state.ckpt"
    trainer.pretrain_encoder(entries, fast_config(["training.pretrain.max_steps=2"]),
                             state_path=state)
    saved = load_checkpoint(state)
    saved.tensors["frontend.mel_mean"] = saved.tensors["frontend.mel_mean"] + np.float32(0.5)
    save_checkpoint(state, saved)
    shifted = frontend.FeatureNormalizer(mean=saved.tensors["frontend.mel_mean"],
                                         std=saved.tensors["frontend.mel_std"])
    raw = {e.text: frontend.log_mel(frontend.load_audio(e.audio_path)).frames
           for e in entries}
    seen = []
    ctc_losses = AsrSystem.ctc_losses

    def recording_ctc_losses(self, features, texts, rng=None):
        seen.extend(zip(texts, features))
        return ctc_losses(self, features, texts, rng)

    monkeypatch.setattr(AsrSystem, "ctc_losses", recording_ctc_losses)
    resumed = trainer.pretrain_encoder(entries, fast_config(["training.pretrain.max_steps=3"]),
                                       state_path=state, resume=True)
    assert resumed.steps == 3 and seen  # one training step and one validation pass
    for text, feats in seen:
        np.testing.assert_array_equal(feats.frames, shifted.apply(raw[text]), err_msg=text)


def test_joint_training_runs_and_logs(pretrain_result, tmp_path):
    result, entries = pretrain_result
    cfg = fast_config()
    joint = trainer.train_joint(entries, cfg, result.checkpoint,
                                log_path=tmp_path / "train_log.csv")
    assert joint.steps == 30
    assert math.isfinite(joint.best_valid)
    log_text = (tmp_path / "train_log.csv").read_text()
    assert log_text.splitlines()[0] == "step,lr,train_loss,valid_loss"
    assert len(log_text.splitlines()) == 1 + len(joint.log)
    # resulting checkpoint loads into a working system
    system = AsrSystem.from_checkpoint(joint.checkpoint)
    assert isinstance(system.transcribe, object)


class Killed(Exception):
    pass


def test_joint_resume_matches_uninterrupted(pretrain_result, tmp_path, monkeypatch):
    result, entries = pretrain_result
    cfg = fast_config(["training.joint.max_steps=20"])
    state = tmp_path / "state.ckpt"
    full = trainer.train_joint(entries, cfg, result.checkpoint)

    # interrupted run: killed right after the first state save, then resumed
    def save_then_kill(path, ckpt):
        save_checkpoint(path, ckpt)
        raise Killed

    with monkeypatch.context() as m:
        m.setattr(trainer, "save_checkpoint", save_then_kill)
        with pytest.raises(Killed):
            trainer.train_joint(entries, cfg, result.checkpoint, state_path=state)
    resumed = trainer.train_joint(entries, cfg, result.checkpoint,
                                  state_path=state, resume=True)
    assert resumed.steps == 20
    for name, arr in full.checkpoint.tensors.items():
        np.testing.assert_array_equal(resumed.checkpoint.tensors[name], arr,
                                      err_msg=name)


def test_killed_stage_leaves_its_log(toy_corpus, tmp_path, monkeypatch):
    """The log is on disk at every evaluation, before the state save."""
    _, entries = toy_corpus
    log = tmp_path / "pretrain_log.csv"

    def save_then_kill(path, ckpt):
        save_checkpoint(path, ckpt)
        raise Killed

    monkeypatch.setattr(trainer, "save_checkpoint", save_then_kill)
    with pytest.raises(Killed):
        trainer.pretrain_encoder(entries, fast_config(), log_path=log,
                                 state_path=tmp_path / "state.ckpt")
    lines = log.read_text().splitlines()
    assert lines[0] == "step,lr,train_loss,valid_loss"
    assert [line.split(",")[0] for line in lines[1:]] == ["10"]


def test_joint_step_gives_frozen_tensors_no_grad(pretrain_result, monkeypatch):
    systems = []
    joint_loss = AsrSystem.joint_loss

    def recording_joint_loss(self, *args, **kwargs):
        systems.append(self)
        return joint_loss(self, *args, **kwargs)

    monkeypatch.setattr(AsrSystem, "joint_loss", recording_joint_loss)
    result, entries = pretrain_result
    trainer.train_joint(entries, fast_config(["training.joint.max_steps=1"]),
                        result.checkpoint)
    system = systems[0]
    frozen = {"lm." + k: t for k, t in system.lm.params.items()}
    frozen.update({"encoder." + k: t for k, t in system.encoder.params.items()
                   if k.startswith("ctc.")})
    assert [name for name, t in frozen.items() if t.grad is not None] == []
    assert [name for name, t in system.joint_trainable().items() if t.grad is None] == []


def test_best_copy_shares_the_frozen_tensors(pretrain_result, monkeypatch):
    """The best-validation copy holds copies of the trained tensors and the
    live arrays of the frozen ones: the LM base, the CTC head and the
    feature statistics."""
    systems = []
    joint_loss = AsrSystem.joint_loss

    def recording_joint_loss(self, *args, **kwargs):
        systems.append(self)
        return joint_loss(self, *args, **kwargs)

    monkeypatch.setattr(AsrSystem, "joint_loss", recording_joint_loss)
    result, entries = pretrain_result
    joint = trainer.train_joint(entries, fast_config(["training.joint.max_steps=10"]),
                                result.checkpoint)
    assert math.isfinite(joint.best_valid)  # best was taken at the step-10 evaluation
    system = systems[0]
    trained = system.joint_trainable()
    live = system.all_tensors()
    best = joint.checkpoint.tensors
    assert set(best) == set(live)
    frozen = sorted(k for k in live if k not in trained)
    assert frozen and all(k.startswith(("lm.", "encoder.ctc.", "frontend.")) for k in frozen)
    assert [k for k in frozen if best[k] is not live[k]] == []
    assert [k for k in trained if np.shares_memory(best[k], live[k])] == []
    for k in trained:
        np.testing.assert_array_equal(best[k], live[k], err_msg=k)


def test_joint_early_stops_on_plateau(pretrain_result):
    result, entries = pretrain_result
    cfg = fast_config(["training.early_stop_evals=1",
                       "training.joint.max_steps=30",
                       "training.joint.peak_lr=1.0e-12",
                       "training.joint.final_lr=1.0e-13"])
    joint = trainer.train_joint(entries, cfg, result.checkpoint)
    assert joint.stopped_early
    assert joint.steps < 30


# -- non-finite losses -------------------------------------------------------

def patch_utt_loss(monkeypatch, stage, replace):
    """Route each per-utterance loss of `stage` through
    replace(loss, step, call), where call counts the losses within a step.
    Stage 1 scores a whole batch in one ctc_losses call, so each entry of
    the (B,) vector it returns is replaced in turn."""
    where = {"step": 0, "call": 0}
    sample_batch = trainer.sample_batch

    def counting_sample_batch(*args, **kwargs):
        where["step"] += 1
        where["call"] = 0
        return sample_batch(*args, **kwargs)

    def each(loss):
        out = replace(loss, where["step"], where["call"])
        where["call"] += 1
        return out

    monkeypatch.setattr(trainer, "sample_batch", counting_sample_batch)
    if stage == "pretrain":
        ctc_losses = ctc.ctc_losses

        def rewritten(*args, **kwargs):
            losses = ctc_losses(*args, **kwargs)
            return ops.concat([each(ops.narrow(losses, 0, i, 1).reshape()).reshape(1)
                               for i in range(losses.shape[0])])

        monkeypatch.setattr(ctc, "ctc_losses", rewritten)
    else:
        joint_loss = AsrSystem.joint_loss
        monkeypatch.setattr(AsrSystem, "joint_loss",
                            lambda *a, **k: each(joint_loss(*a, **k)))


def run_stage(stage, pretrain_result, max_steps):
    encoder, entries = pretrain_result
    if stage == "pretrain":
        return trainer.pretrain_encoder(
            entries, fast_config([f"training.pretrain.max_steps={max_steps}"]))
    return trainer.train_joint(
        entries, fast_config([f"training.joint.max_steps={max_steps}"]),
        encoder.checkpoint)


def scalar(value):
    return Tensor(np.asarray(value, dtype=np.float32))


@pytest.mark.parametrize("stage", ["pretrain", "joint"])
@pytest.mark.parametrize("k", [3, 12])  # before and after the first eval
def test_nan_loss_ends_run_as_diverged(stage, k, pretrain_result, monkeypatch):
    patch_utt_loss(monkeypatch, stage,
                   lambda loss, step, call: scalar(np.nan) if step >= k else loss)
    result = run_stage(stage, pretrain_result, max_steps=20)
    assert result.diverged
    assert result.steps == k
    assert [row["step"] for row in result.log] == ([10] if k > 10 else [])
    assert result.checkpoint.tensors  # the last good weights are kept


@pytest.mark.parametrize("stage", ["pretrain", "joint"])
def test_infeasible_utterance_dropped_from_mean(stage, pretrain_result, monkeypatch):
    before = run_stage(stage, pretrain_result, max_steps=0).checkpoint.tensors
    kept = []

    def first_is_infeasible(loss, step, call):
        if call == 0:
            return scalar(np.inf)
        if loss.requires_grad:  # a training loss, not a validation one
            kept.append(loss)
        return loss

    patch_utt_loss(monkeypatch, stage, first_is_infeasible)
    result = run_stage(stage, pretrain_result, max_steps=1)
    assert not result.diverged
    assert result.steps == 1 and result.infeasible_skipped == 0
    total = np.array([loss.item() for loss in kept], dtype=np.float32).sum()
    assert result.log[0]["train_loss"] == float(total * np.float32(1.0 / len(kept)))
    trainable = "encoder.ctc.w" if stage == "pretrain" else "bridge.proj.w"
    assert not np.array_equal(result.checkpoint.tensors[trainable], before[trainable])


def test_mean_feasible_weights_each_kept_entry_by_one_over_n():
    losses = param(np.array([1.5, np.inf, 2.25, 3.0, np.inf], dtype=np.float32))
    mean = trainer._mean_feasible(losses)
    assert mean.item() == float(np.float32(6.75) * np.float32(1.0 / 3))
    mean.backward()
    want = np.array([1, 0, 1, 1, 0], dtype=np.float32) * np.float32(1.0 / 3)
    assert losses.grad.dtype == np.float32
    np.testing.assert_array_equal(losses.grad, want)
    assert math.isnan(trainer._mean_feasible(param(np.array([np.nan, 1.0]))).item())
    assert trainer._mean_feasible(param(np.full(3, np.inf, dtype=np.float32))) is None


@pytest.mark.parametrize("stage", ["pretrain", "joint"])
def test_all_infeasible_batch_is_skipped(stage, pretrain_result, monkeypatch):
    before = run_stage(stage, pretrain_result, max_steps=0).checkpoint.tensors
    patch_utt_loss(monkeypatch, stage, lambda loss, step, call: scalar(np.inf))
    result = run_stage(stage, pretrain_result, max_steps=3)
    assert not result.diverged
    assert result.steps == 3 and result.infeasible_skipped == 3
    for name, arr in before.items():
        np.testing.assert_array_equal(result.checkpoint.tensors[name], arr)

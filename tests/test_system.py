import tracemalloc

import numpy as np
import pytest

from conftest import fast_config
from prefixasr.checkpoint import CheckpointError
from prefixasr.config import load_config
from prefixasr.frontend import FeatureMatrix, FeatureNormalizer
from prefixasr.numcore import no_grad, use_dtype
from prefixasr.numcore.rng import generator
from prefixasr.system import AsrSystem
from prefixasr.tokenizer import CharTokenizer


def make_system(extra=(), seed=0):
    """A system with no normalizer, so its config has normalization off."""
    cfg = fast_config(["frontend.normalize=false", *extra])
    tok = CharTokenizer.from_texts(["abc de"])
    return AsrSystem(cfg, tok, seed=seed)


def feats(T=70, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(frames=rng.normal(size=(T, 80)).astype(np.float32))


def test_joint_loss_finite_and_backprops():
    system = make_system()
    loss = system.joint_loss(feats(), "abc de")
    assert np.isfinite(loss.item())
    loss.backward()
    # every joint-trainable parameter receives gradient
    for name, p in system.joint_trainable().items():
        assert p.grad is not None, name


class RecordingRng:
    """A generator that logs the size of every random() draw."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


def test_joint_loss_dropout_draw_order():
    """Stage 2 draws per utterance: the token mask over its text, then each
    encoder block's attention then FFN mask over its U frames, then each LM
    block's over the S mixed positions. Pins the order that a batched joint
    stage must reproduce."""
    system = make_system(["encoder.dropout=0.1", "lm.dropout=0.1",
                          "encoder.num_layers=2", "lm.num_layers=2"])
    rng = RecordingRng(generator(0, "test", "step", 1))
    system.joint_loss(feats(70), "abc", rng)
    # U = ceil(70/8) = 9 frames; S = ceil(9/3) audio + bos + 3 chars = 7
    assert rng.sizes == [3] + [(2, 9, 9), (9, 64)] * 2 + [(2, 7, 7), (7, 128)] * 2
    fresh = generator(0, "test", "step", 1)
    for size in rng.sizes:
        fresh.random(size)
    assert rng.random() == fresh.random()


def test_joint_step_working_set():
    """The traced peak of one joint step's loss plus backward at the default
    model size, dropout on, over a 15 s and a 12 s utterance: 17.1 MB with
    a tape that keeps what each backward reads and one-byte dropout masks,
    25.7 MB when the tape also kept each attention's dropped weights, each
    swish's sigmoid and each layer norm's xhat, and masks were float32."""
    texts = ["the quick brown fox jumps over the lazy dog and runs far away",
             "a b c d e f g h i j k l m n o p q r s t u v w x y z abc def ghi"]
    system = AsrSystem(load_config(), CharTokenizer.from_texts(texts), seed=1)
    trained = system.joint_trainable()
    for name, t in system.named_params().items():
        t.requires_grad = name in trained
    batch = [feats(1500, seed=1), feats(1200, seed=2)]

    def step():
        losses = system.joint_losses(batch, texts, generator(1, "joint", "step", 1))
        losses.sum().backward()
        for t in trained.values():
            t.grad = None

    step()  # the first call fills numpy's and the tokenizer's caches
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21e6


def test_joint_losses_draw_order():
    """A batch draws utterance by utterance: the token mask, then the
    encoder masks, then the LM masks, as a loop of joint_loss calls does.
    Pins the order that a batched joint stage must reproduce."""
    system = make_system(["encoder.dropout=0.1", "lm.dropout=0.1",
                          "training.mask_fraction=0.5"])
    enc, lm = system.cfg.encoder, system.cfg.lm
    batch = [(feats(70, seed=1), "abc"), (feats(45, seed=2), "de")]
    rng = RecordingRng(generator(0, "test", "step", 1))
    losses = system.joint_losses([f for f, _ in batch], [t for _, t in batch], rng)
    # U = ceil(T/8) = 9 and 6 frames; S = ceil(U/3) audio + bos + text = 7 and 5
    want = []
    for (_, text), U, S in zip(batch, (9, 6), (7, 5)):
        want.append(len(text))
        want += [(enc.num_heads, U, U), (U, enc.ffn_dim)] * enc.num_layers
        want += [(lm.num_heads, S, S), (S, lm.ffn_dim)] * lm.num_layers
    assert rng.sizes == want
    fresh = generator(0, "test", "step", 1)
    for size in want:
        fresh.random(size)
    assert rng.random() == fresh.random()

    loop_rng = generator(0, "test", "step", 1)
    loop = [system.joint_loss(f, text, loop_rng).item() for f, text in batch]
    assert losses.shape == (2,) and losses.data.tolist() == loop


def test_joint_trainable_excludes_ctc_head_and_base_lm():
    names = set(make_system().joint_trainable())
    assert not any(n.startswith("encoder.ctc.") for n in names)
    assert not any(n.startswith("lm.") for n in names)
    assert any(n.startswith("lora.") for n in names)
    assert any(n.startswith("bridge.") for n in names)


def test_rank_zero_has_no_lm_trainables():
    names = set(make_system(["lora.rank=0"]).joint_trainable())
    assert not any(n.startswith(("lora.", "lm.")) for n in names)


def test_checkpoint_roundtrip_preserves_behavior(tmp_path):
    system = make_system()
    f = feats()
    before = system.transcribe(f)
    clone = AsrSystem.from_checkpoint(system.to_checkpoint())
    assert clone.transcribe(f) == before
    np.testing.assert_array_equal(
        clone.joint_loss(f, "abc").data, system.joint_loss(f, "abc").data)


def test_from_encoder_checkpoint_copies_encoder_only():
    cfg = fast_config()
    tok = CharTokenizer.from_texts(["abc de"])
    donor = AsrSystem(cfg, tok, seed=1)
    donor.normalizer = FeatureNormalizer(
        mean=np.zeros(80, np.float32), std=np.ones(80, np.float32))
    ckpt = donor.to_checkpoint({"stage": "ctc_pretrain"})
    system = AsrSystem.from_encoder_checkpoint(cfg, ckpt, seed=2)
    for name, p in donor.encoder.params.items():
        np.testing.assert_array_equal(system.encoder.params[name].data, p.data)
    assert system.normalizer is not None
    # bridge is freshly seeded, not copied
    assert not np.array_equal(system.bridge.params["proj.w"].data,
                              donor.bridge.params["proj.w"].data)


def test_load_tensors_rejects_shape_mismatch():
    system = make_system()
    bad = {**system.all_tensors(), "bridge.proj.b": np.zeros(3, np.float32)}
    with pytest.raises(CheckpointError, match=r"bridge\.proj\.b saved \(3,\)"):
        system.load_tensors(bad)


def test_load_tensors_rejects_unknown_name():
    system = make_system()
    bad = {**system.all_tensors(), "mystery.w": np.zeros(2, np.float32)}
    with pytest.raises(CheckpointError, match=r"mystery\.w saved \(2,\), expected none"):
        system.load_tensors(bad)


def test_load_tensors_rejects_missing_tensor():
    system = make_system()
    bad = system.all_tensors()
    del bad["encoder.block0.wq"]
    with pytest.raises(CheckpointError, match=r"encoder\.block0\.wq saved none"):
        system.load_tensors(bad)
    # a prefix that leaves the tensor out does not need it
    system.load_tensors(bad, ("bridge.",))


def test_load_tensors_needs_feature_statistics_when_normalizing():
    system = make_system(["frontend.normalize=true"])
    with pytest.raises(CheckpointError, match=r"frontend\.mel_mean saved none"):
        system.load_tensors(system.all_tensors())


def randomize_adapters(system, seed=3, scale=0.1):
    """Non-trivial adapter weights, so folding them moves the LM base."""
    rng = np.random.default_rng(seed)
    for t in system.lm.lora_parameters().values():
        t.data = rng.normal(scale=scale, size=t.data.shape).astype(t.data.dtype)


def test_merged_checkpoint_matches_adapter_forward():
    system = make_system()
    randomize_adapters(system, scale=0.02)
    f = feats()
    merged = AsrSystem.from_checkpoint(system.to_checkpoint())
    assert merged.cfg.lora.rank == system.cfg.lora.rank
    assert not any(k.startswith("lora.") for k in merged.all_tensors())
    np.testing.assert_allclose(merged.joint_loss(f, "abc").item(),
                               system.joint_loss(f, "abc").item(), atol=1e-5)


def test_loaded_system_decodes_as_the_unfolded_one():
    """from_checkpoint folds the adapters into the LM base. Each token its
    decode picks must be the argmax, up to 1e-5 ties, of a full
    forward_mixed recompute on the unfolded system; so must eos where the
    decode stopped short of max_len."""
    max_len = 30
    with use_dtype(np.float64):
        system = make_system()
        randomize_adapters(system)
        loaded = AsrSystem.from_checkpoint(system.to_checkpoint())
        f = feats()
        with no_grad():
            ids = loaded.lm.greedy_decode(loaded.embed_audio(f), max_len=max_len)
            audio = system.embed_audio(f)
            logits = system.lm.forward_mixed(
                audio, [system.lm.config.bos_id] + ids).data
    assert loaded.cfg.lora.rank == system.cfg.lora.rank and loaded.lm.lora == {}
    assert not np.array_equal(loaded.lm.params["block0.wq"].data,
                              system.lm.params["block0.wq"].data)
    chosen = ids if len(ids) == max_len else ids + [system.lm.config.eos_id]
    rows = logits[audio.shape[0]:][:len(chosen)]
    picked = rows[np.arange(len(chosen)), chosen]
    assert np.all(picked >= rows.max(axis=1) - 1e-5)


def test_loaded_system_saves_as_merged_checkpoint():
    """A loaded system saves the adapters folded into the LM base, with no
    lora.* tensors and lora.rank 0."""
    system = make_system()
    randomize_adapters(system)
    saved = AsrSystem.from_checkpoint(system.to_checkpoint()).to_checkpoint()
    merged = {k: v for k, v in system.all_tensors().items() if not k.startswith("lora.")}
    merged.update({"lm." + k: t.data for k, t in system.lm.merged_params().items()})
    config = system.cfg.to_dict()
    config["lora"]["rank"] = 0
    assert saved.config == config
    assert saved.tensors.keys() == merged.keys()
    for name, arr in merged.items():
        np.testing.assert_array_equal(saved.tensors[name], arr)


def test_loaded_system_keeps_its_trained_config():
    ckpt = make_system().to_checkpoint()
    assert ckpt.config["lora"]["rank"] > 0
    assert AsrSystem.from_checkpoint(ckpt).cfg.to_dict() == ckpt.config


def test_lm_without_layers_saves_its_lora_rank():
    """An LM with no blocks holds no adapters to fold; its checkpoints keep
    the configured rank, so a resume compares equal to the run's config."""
    system = make_system(["lm.num_layers=0"])
    assert system.to_checkpoint().config == system.cfg.to_dict()
    loaded = AsrSystem.from_checkpoint(system.to_checkpoint())
    assert loaded.to_checkpoint().config == system.cfg.to_dict()


def test_transcribe_max_len_zero_decodes_nothing():
    system = make_system()
    assert system.transcribe(feats(), max_len=0) == ""


def test_transcribe_is_deterministic():
    system = make_system()
    f = feats()
    assert system.transcribe(f) == system.transcribe(f)

import math

import numpy as np
import pytest

from prefixasr import ctc
from prefixasr import numcore as nc
from prefixasr.encoder import ConformerEncoder, EncoderConfig
from prefixasr.frontend import FeatureMatrix
from prefixasr.layers import padding_masks
from prefixasr.numcore import Tensor, ops
from prefixasr.numcore.rng import generator


def tiny_config(**kw):
    defaults = dict(num_layers=2, d_model=16, ffn_dim=32, num_heads=2,
                    subsample_channels=12, ctc_vocab=5, max_frames=64,
                    dropout=0.0)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def feats(rng, T):
    return FeatureMatrix(frames=rng.standard_normal((T, 80)).astype(np.float32))


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_model=30, num_heads=4, ctc_vocab=5)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(conv_kernel=10, ctc_vocab=5)

    def test_ctc_vocab_required(self):
        with pytest.raises(TypeError):
            EncoderConfig()

    def test_non_pow2_stride_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(subsample_stride=6, ctc_vocab=5)


class TestSubsample:
    @pytest.mark.parametrize("T,U", [(96, 12), (98, 13), (8, 1), (1, 1), (104, 13)])
    def test_length_law(self, T, U):
        enc = ConformerEncoder(tiny_config(), seed=1)
        x = Tensor(np.random.default_rng(0).standard_normal((T, 80)).astype(np.float32))
        assert enc.subsample(x, [T]).shape == (U, 16)

    def test_stride_one_keeps_every_frame(self):
        rng = np.random.default_rng(0)
        enc = ConformerEncoder(tiny_config(subsample_stride=1), seed=1)
        assert enc.params["sub.proj.w"].shape == (80, 16)
        emb, logp = enc.encode(feats(rng, 10))
        assert emb.shape == (10, 16) and logp.shape == (10, 6)
        logp, lengths = enc.encode_batch([feats(rng, 10), feats(rng, 7)])
        assert logp.shape == (2, 10, 6) and lengths == [10, 7]

    def test_constant_input_gives_identical_frames(self):
        enc = ConformerEncoder(tiny_config(), seed=1)
        x = Tensor(np.ones((8, 80), dtype=np.float32))
        out = enc.subsample(x, [8]).data
        # positions differ per frame; compare before the position add
        out_nopos = out - enc.params["sub.pos"].data[:out.shape[0]]
        assert np.allclose(out_nopos, out_nopos[0], atol=1e-5)


class TestConformerBlock:
    def test_zeroed_residual_outputs_give_identity(self):
        enc = ConformerEncoder(tiny_config(), seed=2)
        for i in range(2):
            for name in ("wo", "pw2.w", "ffn2.w"):
                enc.params[f"block{i}.{name}"].data[:] = 0
            for name in ("wo.b", "pw2.b", "ffn2.b"):
                enc.params[f"block{i}.{name}"].data[:] = 0
        x = Tensor(np.random.default_rng(3).standard_normal((5, 16)).astype(np.float32))
        y = enc.conformer_block(0, x)
        assert np.allclose(y.data, x.data)

    def test_single_frame_finite(self):
        enc = ConformerEncoder(tiny_config(), seed=2)
        x = Tensor(np.random.default_rng(4).standard_normal((1, 16)).astype(np.float32))
        y = enc.conformer_block(0, x)
        assert y.shape == (1, 16)
        assert np.all(np.isfinite(y.data))

    def test_gradient_check(self):
        with nc.use_dtype(np.float64):
            enc = ConformerEncoder(
                EncoderConfig(num_layers=1, d_model=6, ffn_dim=8, num_heads=2,
                              conv_kernel=3, subsample_channels=4, ctc_vocab=3,
                              max_frames=16, dropout=0.0), seed=5)
            x = nc.param(np.random.default_rng(6).standard_normal((4, 6)))
            params = {"x": x}
            params.update({k: v for k, v in enc.params.items()
                           if k.startswith("block0.")})
            report = nc.grad_check(lambda: enc.conformer_block(0, x).mean(), params)
            assert report.max_rel_error < 1e-5, report.per_param


class TestEncode:
    def test_ctc_rows_match_frames(self):
        enc = ConformerEncoder(tiny_config(), seed=7)
        rng = np.random.default_rng(8)
        emb, lp = enc.encode(feats(rng, 50))
        assert emb.shape == (7, 16)
        assert lp.shape == (7, 6)
        assert np.allclose(np.exp(lp.data).sum(axis=1), 1.0, atol=1e-5)

    def test_deterministic_inference(self):
        enc = ConformerEncoder(tiny_config(), seed=7)
        rng = np.random.default_rng(9)
        f = feats(rng, 40)
        a, _ = enc.encode(f)
        b, _ = enc.encode(f)
        assert np.array_equal(a.data, b.data)

    def test_zeroed_residuals_make_encoder_the_subsampler(self):
        enc = ConformerEncoder(tiny_config(), seed=10)
        for i in range(2):
            for name in ("wo", "wo.b", "pw2.w", "pw2.b", "ffn2.w", "ffn2.b"):
                enc.params[f"block{i}.{name}"].data[:] = 0
        rng = np.random.default_rng(11)
        f = feats(rng, 33)
        emb, _ = enc.encode(f)
        sub = enc.subsample(Tensor(f.frames), [f.num_frames])
        assert np.allclose(emb.data, sub.data, atol=1e-6)


class TestBatched:
    def test_attention_gradient_with_key_padding(self):
        rng = np.random.default_rng(15)
        lengths = [5, 2, 4]
        with nc.use_dtype(np.float64):
            q, k, v = (nc.param(rng.standard_normal((3, 5, 4))) for _ in range(3))
            keep = ops.dropout_mask((3, 2, 5, 5), 0.3, rng)
            wts = nc.as_tensor(rng.standard_normal((3, 5, 4)))
            report = nc.grad_check(
                lambda: (ops.attention(q, k, v, 2, padding_masks(lengths, 5, np.float64)[1],
                                       keep, 0.3) * wts).sum(),
                {"q": q, "k": k, "v": v})
            assert report.max_rel_error < 1e-5, report.per_param

    def test_attention_rows_match_single_sequences(self):
        rng = np.random.default_rng(16)
        lengths = [5, 2, 4]
        with nc.use_dtype(np.float64):
            q, k, v = (Tensor(rng.standard_normal((3, 5, 4))) for _ in range(3))
            out = ops.attention(q, k, v, 2, padding_masks(lengths, 5, np.float64)[1]).data
            for i, T in enumerate(lengths):
                one = ops.attention(Tensor(q.data[i, :T]), Tensor(k.data[i, :T]),
                                    Tensor(v.data[i, :T]), 2).data
                np.testing.assert_allclose(out[i, :T], one, rtol=1e-12, atol=1e-12)

    def test_batch_matches_loop_of_single_utterances(self):
        """One padded batch against encoding and scoring the utterances one
        at a time from the same step RNG: same dropout draws, same losses and
        the same gradients, with an infeasible utterance dropped."""
        with nc.use_dtype(np.float64):
            enc = ConformerEncoder(tiny_config(dropout=0.1), seed=13)
            rng = np.random.default_rng(14)
            feats = [FeatureMatrix(rng.standard_normal((T, 80)))
                     for T in (50, 17, 33, 64, 9, 41)]
            # 9 frames subsample to 2, too few for 7 labels: infeasible
            labels = [[1, 2, 3], [4], [1, 1, 2], [5, 4, 3, 2, 1],
                      [1, 2, 3, 4, 5, 1, 2], [2]]

            def run(batched):
                for p in enc.params.values():
                    p.grad = None
                step_rng = generator(0, "test", "step", 1)
                if batched:
                    log_probs, frames = enc.encode_batch(feats, rng=step_rng)
                    losses = ctc.ctc_losses(log_probs, frames, labels)
                    values = losses.data.tolist()
                    total = ops.embedding(losses, np.flatnonzero(np.isfinite(losses.data))).sum()
                else:
                    losses = [ctc.ctc_loss(enc.encode(f, rng=step_rng)[1], l)
                              for f, l in zip(feats, labels)]
                    values = [l.item() for l in losses]
                    kept = [l for l in losses if l.item() != math.inf]
                    total = kept[0]
                    for loss in kept[1:]:
                        total = total + loss
                total.backward()
                return (values, step_rng.random(),
                        {n: p.grad.copy() for n, p in enc.params.items()})

            losses, next_draw, grads = run(batched=True)
            want_losses, want_draw, want_grads = run(batched=False)
            assert math.isinf(losses[4]) and math.isinf(want_losses[4])
            np.testing.assert_allclose(losses, want_losses, rtol=1e-6)
            assert next_draw == want_draw
            for name, want in want_grads.items():
                np.testing.assert_allclose(grads[name], want, rtol=1e-6, atol=1e-9,
                                           err_msg=name)

import numpy as np
import pytest

from prefixasr import numcore as nc
from prefixasr.declm import DecoderLM, LmConfig
from prefixasr.frontend import AudioError
from prefixasr.layers import causal_mask, dropout_keeps
from prefixasr.numcore import Tensor, generator, ops


def tiny_lm(rank=0, vocab=12, seed=0, dropout=0.0, **kw):
    cfg = LmConfig(vocab_size=vocab, d_llm=16, num_layers=2, num_heads=2,
                   ffn_dim=24, max_positions=64, dropout=dropout, **kw)
    return DecoderLM(cfg, seed=seed, lora_rank=rank)


def audio(rng, M, d=16):
    return Tensor(rng.standard_normal((M, d)).astype(np.float32))


def random_up(lm, seed, scale):
    """Give every adapter's `up` random weights, so adapters are live."""
    rng = generator(seed, "up")
    for name, t in lm.lora.items():
        if name.endswith(".up"):
            t.data[:] = scale * rng.standard_normal(t.shape).astype(t.data.dtype)


def adapted_lm(seed, up_scale=None):
    """A rank-4 tiny LM; with up_scale, every `up` gets random weights."""
    lm = tiny_lm(rank=4, seed=seed)
    if up_scale is not None:
        random_up(lm, seed, up_scale)
    return lm


def inputs(seed, rows, d=16):
    return Tensor(generator(seed, "x").standard_normal((rows, d)).astype(np.float32))


class TestLoraLinear:
    def test_fresh_adapter_is_identity(self):
        lm = adapted_lm(0)
        x = inputs(0, 3)
        p = lm.params
        for name in ("block0.wq", "block1.wo"):
            base = ops.linear(x, p[name], p[name + ".b"])
            assert np.array_equal(lm._proj(x, name).data, base.data)

    def test_rank_zero_equals_base(self):
        lm = tiny_lm(rank=0, seed=1)
        x = inputs(1, 3)
        p = lm.params
        assert lm.lora == {}
        assert np.array_equal(lm._proj(x, "block0.wv").data,
                              ops.linear(x, p["block0.wv"], p["block0.wv.b"]).data)

    def test_matches_dense_computation(self):
        lm = adapted_lm(2, up_scale=1.0)
        x = inputs(2, 5)
        name = "block1.wk"
        w, b = lm.params[name].data, lm.params[name + ".b"].data
        down, up = lm.lora[name + ".down"].data, lm.lora[name + ".up"].data
        dense = w + (16 / 4) * (down @ up)
        assert np.allclose(lm._proj(x, name).data, x.data @ dense + b, atol=1e-5)


class TestMergeLora:
    def test_zero_up_merge_is_noop(self):
        lm = adapted_lm(3)
        merged = lm.merged_params()
        assert merged.keys() == lm.params.keys()
        for name, w in lm.params.items():
            assert np.array_equal(merged[name].data, w.data), name

    def test_merged_equals_unmerged_on_100_inputs(self):
        lm = adapted_lm(4, up_scale=0.3)
        merged = lm.merged_params()
        for i in range(100):
            x = inputs(100 + i, 2)
            for name in ("block0.wq", "block0.wk", "block1.wv", "block1.wo"):
                a = lm._proj(x, name).data
                b = ops.linear(x, merged[name], merged[name + ".b"]).data
                assert np.allclose(a, b, atol=1e-5), name

    def test_delta_rank_bounded(self):
        lm = adapted_lm(5, up_scale=1.0)
        merged = lm.merged_params()
        for name in ("block0.wq", "block1.wo"):
            delta = merged[name].data - lm.params[name].data
            assert np.any(delta != 0.0)
            assert np.linalg.matrix_rank(delta, tol=1e-4) <= 4


class TestForwardMixed:
    def test_empty_audio_is_standard_lm(self):
        lm = tiny_lm()
        ids = [2, 5, 6, 7]
        a = lm.forward_mixed(None, ids)
        b = lm.forward_mixed(Tensor(np.zeros((0, 16), dtype=np.float32)), ids)
        assert a.shape == (4, 12)
        assert np.array_equal(a.data, b.data)

    def test_causality_suffix_permutation(self):
        lm = tiny_lm(seed=1)
        rng = np.random.default_rng(0)
        a = audio(rng, 3)
        ids1 = [2, 5, 6, 7, 8]
        ids2 = [2, 5, 6, 8, 7]  # same first 3 tokens
        l1 = lm.forward_mixed(a, ids1)
        l2 = lm.forward_mixed(a, ids2)
        assert np.array_equal(l1.data[:6], l2.data[:6])

    def test_audio_conditioning_gradient_is_live(self):
        rng = np.random.default_rng(1)
        with nc.use_dtype(np.float64):
            cfg = LmConfig(vocab_size=8, d_llm=8, num_layers=1, num_heads=2,
                           ffn_dim=12, max_positions=32, dropout=0.0)
            lm = DecoderLM(cfg, seed=2, lora_rank=2)
            a = nc.param(rng.standard_normal((2, 8)))
            report = nc.grad_check(lambda: lm.loss_mixed(a, [5, 6]), {"audio": a})
            assert report.max_rel_error < 1e-5
            assert np.any(a.grad != 0.0)

    def test_overflow_error_names_lengths(self):
        lm = tiny_lm()
        rng = np.random.default_rng(2)
        a = audio(rng, 60)
        with pytest.raises(ValueError, match="audio=60"):
            lm.forward_mixed(a, [2] * 10)

    def test_full_mixed_loss_gradient_check(self):
        rng = np.random.default_rng(3)
        with nc.use_dtype(np.float64):
            cfg = LmConfig(vocab_size=8, d_llm=8, num_layers=1, num_heads=2,
                           ffn_dim=12, max_positions=32, dropout=0.0)
            lm = DecoderLM(cfg, seed=4, lora_rank=2)
            a = nc.param(rng.standard_normal((2, 8)))
            params = {"audio": a}
            params.update(lm.lora_parameters())
            params["tok"] = lm.params["tok"]
            report = nc.grad_check(lambda: lm.loss_mixed(a, [4, 6, 5]), params)
            assert report.max_rel_error < 1e-5, report.per_param


def batched_losses(lm, audio, texts, rng=None):
    """One right-padded (B, S) pass over the rows [audio_i || bos || text_i]:
    the logits and each row's mean next-token loss, taken as loss_mixed
    takes it."""
    cfg = lm.config
    x, lengths = lm._embed(audio, [[cfg.bos_id] + t for t in texts])
    logits = lm._logits(x, lengths, causal_mask(x.shape[1], dtype=x.data.dtype), rng=rng)
    losses = []
    for b, (a, t) in enumerate(zip(audio, texts)):
        M = 0 if a is None else a.shape[0]
        row = ops.narrow(logits, 0, b, 1).reshape(*logits.shape[1:])
        logp = ops.log_softmax(ops.narrow(row, 0, M, len(t) + 1))
        losses.append(-ops.gather_rows(logp, np.asarray(t + [cfg.eos_id])).mean())
    total = losses[0]
    for loss in losses[1:]:
        total = total + loss
    return logits, total


class TestBatchedRows:
    def test_rows_equal_per_row_forward(self):
        """Three rows of different lengths (S = 8, 3, 7; one without audio)
        in one padded pass equal a loop of per-row forward_mixed/loss_mixed
        calls: logits, gradients and the dropout RNG's end position."""
        with nc.use_dtype(np.float64):
            lm = tiny_lm(rank=2, seed=10, dropout=0.1)
            random_up(lm, 10, 0.5)
            rng = generator(10, "rows")
            audio = [nc.param(rng.standard_normal((M, 16))) if M else None
                     for M in (3, 0, 5)]
            texts = [[5, 6, 7, 8], [4, 9], [6]]
            trainable = {f"audio{i}": a for i, a in enumerate(audio) if a is not None}
            trainable.update(lm.lora)

            drop = generator(10, "drop")
            logits, total = batched_losses(lm, audio, texts, drop)
            total.backward()
            batched = {name: t.grad for name, t in trainable.items()}

            row_drop = generator(10, "drop")
            for i, (a, t) in enumerate(zip(audio, texts)):
                row = lm.forward_mixed(a, [lm.config.bos_id] + t, rng=row_drop).data
                np.testing.assert_allclose(logits.data[i, :row.shape[0]], row,
                                           rtol=0, atol=1e-12)
            assert drop.random() == row_drop.random()

            for t in trainable.values():
                t.grad = None
            loop_drop = generator(10, "drop")
            loop_total = lm.loss_mixed(audio[0], texts[0], rng=loop_drop)
            for a, t in zip(audio[1:], texts[1:]):
                loop_total = loop_total + lm.loss_mixed(a, t, rng=loop_drop)
            np.testing.assert_allclose(total.data, loop_total.data, rtol=0, atol=1e-12)
            loop_total.backward()
            for name, t in trainable.items():
                assert np.any(batched[name] != 0.0), name
                np.testing.assert_allclose(batched[name], t.grad, rtol=0, atol=1e-12,
                                           err_msg=name)

    def test_padded_batch_gradient_check(self):
        """Finite differences on a B = 2 padded batch with dropout: catches an
        op defect that the batched and the per-row path would share."""
        with nc.use_dtype(np.float64):
            cfg = LmConfig(vocab_size=8, d_llm=8, num_layers=1, num_heads=2,
                           ffn_dim=12, max_positions=32, dropout=0.1)
            lm = DecoderLM(cfg, seed=11, lora_rank=2)
            random_up(lm, 11, 0.5)
            rng = generator(11, "rows")
            audio = [nc.param(rng.standard_normal((M, 8))) for M in (3, 1)]
            params = {"audio0": audio[0], "audio1": audio[1], "tok": lm.params["tok"]}
            params.update(lm.lora)
            report = nc.grad_check(
                lambda: batched_losses(lm, audio, [[4, 6], [5, 4, 7, 6]],
                                       generator(11, "drop"))[1], params)
            assert report.max_rel_error < 1e-5, report.per_param

    def test_overflow_is_checked_per_row(self):
        lm = tiny_lm()
        rng = np.random.default_rng(12)
        with pytest.raises(AudioError, match="audio=60 \\+ text=5"):
            lm._embed([audio(rng, 2), audio(rng, 60)], [[2, 3], [2] * 5])


class TestDropoutKeeps:
    def test_padding_is_zero_and_rows_are_per_item_draws(self):
        """Per item, then per block, attention before FFN; 0 in padding."""
        lengths, h, f = [3, 5, 1], 2, 4
        rng = generator(0, "keep")
        keeps = dropout_keeps(rng, 0.3, 2, h, f, lengths)
        ref = generator(0, "keep")
        for b, n in enumerate(lengths):
            for att, ffn in keeps:
                assert att.shape == (3, h, 5, 5) and ffn.shape == (3, 5, f)
                assert att.dtype == ffn.dtype == np.bool_
                np.testing.assert_array_equal(
                    att[b, :, :n, :n], ops.dropout_mask((h, n, n), 0.3, ref))
                np.testing.assert_array_equal(
                    ffn[b, :n], ops.dropout_mask((n, f), 0.3, ref))
                assert not att[b, :, n:].any() and not att[b, :, :, n:].any()
                assert not ffn[b, n:].any()
        assert rng.random() == ref.random()

    def test_no_rng_or_zero_rate_draws_nothing(self):
        assert dropout_keeps(None, 0.3, 2, 2, 4, [3]) == [(None, None)] * 2
        rng = generator(0, "keep")
        assert dropout_keeps(rng, 0.0, 2, 2, 4, [3]) == [(None, None)] * 2
        assert rng.random() == generator(0, "keep").random()


def check_decode_to_table_end(lm, seed):
    """The preallocated cache holds max_positions rows; decode up to its last
    row, whatever the prefix length (none at M = 0), and check each token
    against the argmax of a full recompute."""
    lm.params["out.b"].data[lm.config.eos_id] = -1e9  # eos unreachable
    rng = np.random.default_rng(seed)
    for M in (0, 2, 61, 62, 63):
        a = Tensor(rng.standard_normal((M, 16))) if M else None
        with nc.no_grad():
            out = lm.greedy_decode(a, max_len=200)
            logits = lm.forward_mixed(a, [lm.config.bos_id] + out[:-1]).data
        # [audio || bos] alone fills the table at M = 63
        assert len(out) == max(64 - M - 1, 1)
        assert logits.shape[0] == M + len(out)
        assert logits[M:].argmax(axis=1).tolist() == out


class TestGreedyDecode:
    def test_eos_model_gives_empty(self):
        lm = tiny_lm(seed=3)
        # force the output head to always pick eos
        lm.params["out.w"].data[:] = 0
        lm.params["out.b"].data[:] = 0
        lm.params["out.b"].data[lm.config.eos_id] = 10.0
        rng = np.random.default_rng(4)
        assert lm.greedy_decode(audio(rng, 2)) == []

    def test_length_cap(self):
        lm = tiny_lm(seed=4)
        lm.params["out.b"].data[lm.config.eos_id] = -1e9  # eos unreachable
        rng = np.random.default_rng(5)
        for M in (2, 5):
            a = audio(rng, M)
            # [audio || bos] fills M + 1 positions; each token but the last
            # takes one more, and the table holds max_positions = 64
            assert len(lm.greedy_decode(a, max_len=200)) == 64 - M - 1
            assert len(lm.greedy_decode(a, max_len=7)) == 7
            assert lm.greedy_decode(a, max_len=0) == []

    def test_cache_fills_the_position_table(self):
        """Float64, for a base LM and for one with live adapters."""
        with nc.use_dtype(np.float64):
            for lm in (tiny_lm(seed=8), adapted_lm(8, up_scale=0.3)):
                check_decode_to_table_end(lm, seed=9)

    def test_folded_norms_match_full_forward(self):
        """The decode folds each layer norm's gain and bias into the projection
        after it. At init every gain is 1 and every bias 0, so random gains,
        norm biases and projection biases are what make a wrong fold show."""
        with nc.use_dtype(np.float64):
            for lm in (tiny_lm(seed=11), adapted_lm(11, up_scale=0.3)):
                rng = np.random.default_rng(12)
                for name, t in lm.params.items():
                    if name.endswith((".g", ".b")):
                        t.data[:] = name.endswith(".g") + 0.5 * rng.standard_normal(t.shape)
                check_decode_to_table_end(lm, seed=13)

    def test_repeated_decodes_identical(self):
        lm = tiny_lm(seed=5, rank=2)
        rng = np.random.default_rng(6)
        a = audio(rng, 3)
        assert lm.greedy_decode(a) == lm.greedy_decode(a)

    def test_cache_matches_full_forward(self):
        lm = tiny_lm(seed=6)
        rng = np.random.default_rng(7)
        a = audio(rng, 3)
        out = lm.greedy_decode(a, max_len=8)
        # re-score: each decoded token must be the argmax of the full forward
        ids = [lm.config.bos_id] + out
        logits = lm.forward_mixed(a, ids)
        for j, tok in enumerate(out):
            pos = a.shape[0] + j
            assert int(logits.data[pos].argmax()) == tok


class TestFreezing:
    def test_zero_init_lora_matches_frozen_base_loss(self):
        base = tiny_lm(rank=0, seed=7)
        adapted = tiny_lm(rank=4, seed=7)
        rng = np.random.default_rng(8)
        a = audio(rng, 2)
        l0 = base.loss_mixed(Tensor(a.data.copy()), [5, 6, 7]).item()
        l1 = adapted.loss_mixed(Tensor(a.data.copy()), [5, 6, 7]).item()
        assert l0 == l1

    def test_lora_parameter_count_formula(self):
        lm = tiny_lm(rank=4)
        count = sum(t.data.size for t in lm.lora_parameters().values())
        d = lm.config.d_llm
        assert count == 4 * (d + d) * 4 * lm.config.num_layers

    def test_rank_zero_has_no_trainable_lm_params(self):
        lm = tiny_lm(rank=0)
        assert lm.lora_parameters() == {}

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefixasr import numcore as nc
from prefixasr.config import StageSection
from prefixasr.numcore import ops


def rand(rng, *shape):
    return rng.standard_normal(shape)


class TestPrimitiveGradients:
    """Every primitive vs central finite differences, in 64-bit mode."""

    def check(self, build, params, tol=1e-6):
        report = nc.grad_check(build, params)
        assert report.max_rel_error < tol, report.per_param

    def test_matmul(self):
        rng = np.random.default_rng(0)
        with nc.use_dtype(np.float64):
            a = nc.param(rand(rng, 3, 4))
            b = nc.param(rand(rng, 4, 2))
            self.check(lambda: (a @ b).sum(), {"a": a, "b": b})

    def test_batched_matmul(self):
        rng = np.random.default_rng(1)
        with nc.use_dtype(np.float64):
            a = nc.param(rand(rng, 2, 3, 4))
            b = nc.param(rand(rng, 2, 4, 3))
            self.check(lambda: (a @ b).sum(), {"a": a, "b": b})

    def test_softmax(self):
        rng = np.random.default_rng(2)
        with nc.use_dtype(np.float64):
            x = nc.param(rand(rng, 3, 5))
            w = rand(rng, 3, 5)
            self.check(lambda: (ops.softmax(x) * nc.as_tensor(w)).sum(), {"x": x})

    def test_log_softmax(self):
        rng = np.random.default_rng(3)
        with nc.use_dtype(np.float64):
            x = nc.param(rand(rng, 4, 6))
            w = rand(rng, 4, 6)
            self.check(lambda: (ops.log_softmax(x) * nc.as_tensor(w)).sum(), {"x": x})

    def test_layer_norm(self):
        rng = np.random.default_rng(4)
        with nc.use_dtype(np.float64):
            x = nc.param(rand(rng, 3, 8))
            g = nc.param(1.0 + 0.1 * rand(rng, 8))
            b = nc.param(0.1 * rand(rng, 8))
            w = rand(rng, 3, 8)
            self.check(
                lambda: (ops.layer_norm(x, g, b) * nc.as_tensor(w)).sum(),
                {"x": x, "g": g, "b": b}, tol=1e-5)

    def test_conv1d(self):
        rng = np.random.default_rng(5)
        with nc.use_dtype(np.float64):
            x = nc.param(rand(rng, 9, 3))
            w = nc.param(rand(rng, 3, 3, 4))
            b = nc.param(rand(rng, 4))
            self.check(lambda: ops.conv1d(x, w, b, stride=2, pad=1).sum(),
                       {"x": x, "w": w, "b": b})

    def test_depthwise_conv1d(self):
        rng = np.random.default_rng(6)
        with nc.use_dtype(np.float64):
            x = nc.param(rand(rng, 10, 4))
            w = nc.param(rand(rng, 5, 4))
            b = nc.param(rand(rng, 4))
            self.check(lambda: ops.depthwise_conv1d(x, w, b, pad=2).sum(),
                       {"x": x, "w": w, "b": b})

    def test_glu_swish_sigmoid(self):
        rng = np.random.default_rng(7)
        with nc.use_dtype(np.float64):
            x = nc.param(rand(rng, 4, 6))
            self.check(lambda: ops.glu(x).sum(), {"x": x})
            self.check(lambda: ops.swish(x).sum(), {"x": x})
            self.check(lambda: ops.sigmoid(x).sum(), {"x": x})

    def test_embedding_gather(self):
        rng = np.random.default_rng(8)
        with nc.use_dtype(np.float64):
            table = nc.param(rand(rng, 7, 4))
            ids = np.array([0, 3, 3, 6])
            self.check(lambda: ops.embedding(table, ids).sum(), {"table": table})
            x = nc.param(rand(rng, 5, 6))
            idx = np.array([1, 0, 5, 2, 2])
            self.check(lambda: ops.gather_rows(x, idx).sum(), {"x": x})

    def test_reductions_and_shape_ops(self):
        rng = np.random.default_rng(9)
        with nc.use_dtype(np.float64):
            x = nc.param(rand(rng, 3, 4))
            self.check(lambda: x.mean(), {"x": x})
            self.check(lambda: x.sum(axis=1).sum(), {"x": x})
            self.check(lambda: ops.logsumexp(x).sum(), {"x": x})
            self.check(lambda: x.reshape(4, 3).transpose().sum(axis=0).sum(), {"x": x})
            self.check(lambda: ops.narrow(x, 0, 1, 2).sum(), {"x": x})
            self.check(lambda: ops.concat([x, x], axis=1).sum(), {"x": x})


class TestBatchedPrimitiveGradients:
    """The sequence ops with a leading batch axis over a zero-padded batch,
    vs central finite differences in 64-bit mode."""

    LENGTHS = [9, 5, 7]

    def padded(self, rng, channels):
        """x (B, T, C) and the 0/1 row mask of its real frames."""
        x = nc.param(rand(rng, len(self.LENGTHS), max(self.LENGTHS), channels))
        rows = np.arange(max(self.LENGTHS)) < np.array(self.LENGTHS)[:, None]
        return x, rows[:, :, None].astype(np.float64)

    def check(self, build, params):
        report = nc.grad_check(build, params)
        assert report.max_rel_error < 1e-5, report.per_param

    def test_linear(self):
        rng = np.random.default_rng(20)
        with nc.use_dtype(np.float64):
            x, rows = self.padded(rng, 4)
            w = nc.param(rand(rng, 4, 3))
            b = nc.param(rand(rng, 3))
            wts = nc.as_tensor(rand(rng, 3, 9, 3) * rows)
            self.check(lambda: (ops.linear(x, w, b) * wts).sum(), {"x": x, "w": w, "b": b})

    def test_conv1d(self):
        rng = np.random.default_rng(21)
        with nc.use_dtype(np.float64):
            x, rows = self.padded(rng, 3)
            w = nc.param(rand(rng, 3, 3, 4))
            b = nc.param(rand(rng, 4))
            wts = nc.as_tensor(rand(rng, 3, 5, 4))
            self.check(lambda: (ops.conv1d(ops.mul_const(x, rows), w, b, stride=2, pad=1)
                                * wts).sum(), {"x": x, "w": w, "b": b})

    def test_depthwise_conv1d(self):
        rng = np.random.default_rng(22)
        with nc.use_dtype(np.float64):
            x, rows = self.padded(rng, 4)
            w = nc.param(rand(rng, 5, 4))
            b = nc.param(rand(rng, 4))
            wts = nc.as_tensor(rand(rng, 3, 9, 4) * rows)
            self.check(lambda: (ops.depthwise_conv1d(ops.mul_const(x, rows), w, b, pad=2)
                                * wts).sum(), {"x": x, "w": w, "b": b})

    def test_batched_conv_rows_match_single_items(self):
        rng = np.random.default_rng(23)
        x, rows = self.padded(rng, 3)
        w, b = nc.as_tensor(rand(rng, 3, 3, 4)), nc.as_tensor(rand(rng, 4))
        dw, db = nc.as_tensor(rand(rng, 5, 3)), nc.as_tensor(rand(rng, 3))
        xz = ops.mul_const(x, rows)
        conv = ops.conv1d(xz, w, b, stride=2, pad=1).data
        depth = ops.depthwise_conv1d(xz, dw, db, pad=2).data
        for i, T in enumerate(self.LENGTHS):
            item = nc.as_tensor(x.data[i, :T])
            np.testing.assert_allclose(
                conv[i, :(T + 1) // 2], ops.conv1d(item, w, b, stride=2, pad=1).data,
                rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(
                depth[i, :T], ops.depthwise_conv1d(item, dw, db, pad=2).data,
                rtol=1e-12, atol=1e-12)


def test_quadratic_gradient_exact():
    with nc.use_dtype(np.float64):
        x = nc.param(np.array([3.0]))
        report = nc.grad_check(lambda: (x * x).sum(), {"x": x})
        assert report.max_rel_error < 1e-8
        assert x.grad is not None and abs(x.grad[0] - 6.0) < 1e-8


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7, 48), (3, 5, 64)])
def test_layer_norm_forward_matches_mean_var_formula(dtype, shape):
    rng = np.random.default_rng(12)
    x = (3.0 + 2.0 * rng.standard_normal(shape)).astype(dtype)
    g = (1.0 + 0.1 * rng.standard_normal(shape[-1])).astype(dtype)
    b = (0.1 * rng.standard_normal(shape[-1])).astype(dtype)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    expect = (x - mu) * (1.0 / np.sqrt(var + 1e-5)) * g + b
    out = ops.layer_norm(nc.Tensor(x), nc.Tensor(g), nc.Tensor(b)).data
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, expect)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7, 48), (3, 5, 64)])
def test_layer_norm_backward_matches_mean_formula(dtype, shape):
    rng = np.random.default_rng(14)
    x = nc.Tensor((3.0 + 2.0 * rng.standard_normal(shape)).astype(dtype))
    x.requires_grad = True
    g = (1.0 + 0.1 * rng.standard_normal(shape[-1])).astype(dtype)
    b = (0.1 * rng.standard_normal(shape[-1])).astype(dtype)
    up = rng.standard_normal(shape).astype(dtype)
    ops.layer_norm(x, nc.Tensor(g), nc.Tensor(b)).backward(up)
    inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (x.data - x.data.mean(axis=-1, keepdims=True)) * inv
    dxhat = up * g
    expect = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    assert x.grad.dtype == dtype
    np.testing.assert_array_equal(x.grad, expect)


@pytest.mark.parametrize("pad", [0, 1, 5])
@pytest.mark.parametrize("shape", [(9, 4), (3, 9, 4)])
def test_pad_time_equals_np_pad(pad, shape):
    a = np.random.default_rng(13).standard_normal(shape).astype(np.float32)
    out = ops._pad_time(a, pad)
    assert out.dtype == a.dtype
    np.testing.assert_array_equal(out, np.pad(a, [(0, 0)] * (a.ndim - 2) + [(pad, pad), (0, 0)]))


def test_softmax_rows_sum_to_one_and_lse_safe():
    rng = np.random.default_rng(10)
    x = nc.as_tensor(rng.uniform(-1e4, 1e4, size=(20, 11)))
    s = ops.softmax(x).data
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(np.isfinite(ops.logsumexp(x).data))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_softmax_rows_property(seed):
    rng = np.random.default_rng(seed)
    x = nc.as_tensor(rng.uniform(-50, 50, size=(4, 7)))
    assert np.allclose(ops.softmax(x).data.sum(axis=-1), 1.0, atol=1e-6)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = nc.param(np.array([1.0, -2.0, 3.0]))
        state = nc.AdamState()
        before = p.data.copy()
        nc.adam_step([p], [np.zeros(3, dtype=p.data.dtype)], state, lr=0.1)
        assert np.array_equal(p.data, before)
        assert state.step == 1

    def test_first_step_moves_by_lr(self):
        # m=0.1, v=0.02; bias-corrected both become 1 -> update = lr
        p = nc.param(np.array([1.0]))
        state = nc.AdamState()
        nc.adam_step([p], [np.ones(1, dtype=p.data.dtype)], state, lr=0.1)
        assert abs(p.data[0] - 0.9) < 1e-6

    def test_constant_gradient_strictly_decreasing(self):
        p = nc.param(np.array([1.0]))
        state = nc.AdamState()
        vals = [p.data[0]]
        for _ in range(2):
            nc.adam_step([p], [np.ones(1, dtype=p.data.dtype)], state, lr=0.1)
            vals.append(p.data[0])
        assert vals[0] > vals[1] > vals[2]

    def test_shape_mismatch_raises(self):
        p = nc.param(np.zeros(3))
        with pytest.raises(nc.ShapeError):
            nc.adam_step([p], [np.zeros(4, dtype=p.data.dtype)], nc.AdamState(), 0.1)

    def test_nonfinite_gradient_rejected(self):
        p = nc.param(np.zeros(2))
        before = p.data.copy()
        state = nc.AdamState()
        with pytest.raises(nc.NonFiniteGradientError):
            nc.adam_step([p], [np.array([1.0, np.nan])], state, 0.1)
        assert np.array_equal(p.data, before)
        assert state.step == 0


class TestSchedule:
    def test_peak_reached_at_warmup_end(self):
        s = StageSection(peak_lr=1e-3, final_lr=1e-5, warmup_steps=20000, total_steps=100000)
        assert nc.schedule_lr(s, 20000) == pytest.approx(1e-3)

    def test_linear_ramp_midpoint(self):
        s = StageSection(peak_lr=5e-4, final_lr=5e-6, warmup_steps=5000, total_steps=250000)
        assert nc.schedule_lr(s, 2500) == pytest.approx(2.5e-4)

    def test_final_lr_at_total_steps(self):
        s = StageSection(peak_lr=5e-4, final_lr=5e-6, warmup_steps=5000, total_steps=250000)
        assert nc.schedule_lr(s, 250000) == pytest.approx(5e-6)
        assert nc.schedule_lr(s, 400000) == pytest.approx(5e-6)

    @given(st.integers(0, 300000))
    @settings(max_examples=100, deadline=None)
    def test_continuous_and_nonincreasing_after_warmup(self, step):
        s = StageSection(peak_lr=5e-4, final_lr=5e-6, warmup_steps=5000, total_steps=250000)
        lr = nc.schedule_lr(s, step)
        assert 0 <= lr <= s.peak_lr
        if step >= s.warmup_steps:
            assert nc.schedule_lr(s, step + 1) <= lr + 1e-15

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            StageSection(peak_lr=1e-3, final_lr=1e-5, warmup_steps=10, total_steps=10)
        with pytest.raises(ValueError):
            StageSection(peak_lr=1e-5, final_lr=1e-3, warmup_steps=10, total_steps=20)


def test_clip_grad_norm():
    g = [np.array([3.0, 4.0])]
    total = nc.clip_grad_norm(g, 1.0)
    assert total == pytest.approx(5.0)
    assert np.allclose(g[0], [0.6, 0.8])


def test_rng_splitting_deterministic_and_independent():
    a1 = nc.generator(7, "mask", 10).random(5)
    a2 = nc.generator(7, "mask", 10).random(5)
    b = nc.generator(7, "mask", 11).random(5)
    c = nc.generator(7, "sampler", 10).random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_no_grad_blocks_tape():
    x = nc.param(np.ones(3))
    with nc.no_grad():
        y = (x * 2.0).sum()
        others = [x * 2.0, x.reshape(1, 3) @ x.reshape(3, 1), ops.softmax(x)]
    assert y._backward is None and not y.requires_grad
    for y in [y] + others:
        assert y._parents == () and y._backward is None
        assert not y.requires_grad and y.grad is None


def _linear_dag(leaves, program, roots):
    """Loss of a linear graph over (2, 3) leaves. Each program step appends
    one tensor to the pool, built from pool entries picked modulo its size;
    the loss adds up the .sum() of the pool entries named in roots."""
    pool = list(leaves)
    for op, i, j, c in program:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if op == "add":
            t = a + b
        elif op == "sub":
            t = a - b
        elif op == "mul":
            t = a * float(c)
        elif op == "reshape":
            t = a.reshape(6).reshape(3, 2).reshape(2, 3)
        else:  # concat, then narrow back to (2, 3) at offset c
            axis = c % 2
            t = ops.narrow(ops.concat([a, b], axis=axis), axis, c % (a.shape[axis] + 1),
                           a.shape[axis])
        pool.append(t)
    loss = pool[roots[0] % len(pool)].sum()
    for r in roots[1:]:
        loss = loss + pool[r % len(pool)].sum()
    return loss


class TestBackwardSharedGradients:
    """Ops such as add, reshape and concat hand views of one gradient array to
    several parents; backward must not add later contributions into it."""

    def test_reused_operand(self):
        x, y = nc.param([1.0]), nc.param([1.0])
        ((x + y) + y).sum().backward()
        assert x.grad.tolist() == [1.0] and y.grad.tolist() == [2.0]

    @given(st.lists(st.tuples(st.sampled_from(["add", "sub", "mul", "reshape", "concat"]),
                              st.integers(0, 20), st.integers(0, 20), st.integers(-3, 3)),
                    min_size=1, max_size=12),
           st.lists(st.integers(0, 20), min_size=1, max_size=4),
           st.integers(1, 3))
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def test_linear_graphs_exact(self, program, roots, num_leaves):
        """The graphs are linear over small integers in float64, so each leaf
        gradient equals the loss change under a unit step, exactly."""
        with nc.use_dtype(np.float64):
            rng = np.random.default_rng(len(program))
            base = [rng.integers(-3, 4, size=(2, 3)).astype(np.float64)
                    for _ in range(num_leaves)]
            leaves = [nc.param(a) for a in base]
            loss = _linear_dag(leaves, program, roots)
            loss.backward()
            f0 = loss.item()
            with nc.no_grad():
                for n, leaf in enumerate(leaves):
                    expected = np.zeros((2, 3))
                    for idx in np.ndindex(2, 3):
                        data = [a.copy() for a in base]
                        data[n][idx] += 1.0
                        expected[idx] = _linear_dag(
                            [nc.as_tensor(a) for a in data], program, roots).item() - f0
                    got = leaf.grad if leaf.grad is not None else np.zeros((2, 3))
                    np.testing.assert_array_equal(got, expected)


def _composed_attention(q, k, v, num_heads, mask=None, keep=None, p=0.0):
    """Reference: the attention ops.attention fuses, built from separate
    tape ops (split heads, q k^T, scale, add_mask, softmax, keep, @ v,
    merge heads)."""
    *lead, Tq, d = q.shape
    n, dh = len(lead), d // num_heads
    heads = (*range(n), n + 1, n, n + 2)

    def split(x):
        return x.reshape(*lead, x.shape[-2], num_heads, dh).transpose(*heads)

    qh, kh, vh = split(q), split(k), split(v)
    scores = (qh @ kh.transpose(*range(n + 1), n + 2, n + 1)) * (1.0 / np.sqrt(dh))
    if mask is not None:
        scores = ops.add_mask(scores, mask)
    weights = ops.softmax(scores, axis=-1)
    if keep is not None:
        weights = ops.dropout(weights, keep, p)
    return (weights @ vh).transpose(*heads).reshape(*lead, Tq, d)


def _causal_padded_mask(rng, lead, T):
    """A causal mask plus key padding at random lengths, (*lead, 1, T, T)."""
    lengths = rng.integers(1, T + 1, size=lead)
    banned = (np.arange(T) >= lengths[..., None])[..., None, None, :]
    banned = banned | np.triu(np.ones((T, T), bool), k=1)
    return np.where(banned, -1e9, 0.0)


class TestFusedAttention:
    """ops.attention: finite differences in 64-bit mode, and bit-for-bit
    agreement with the composed ops in 32-bit mode."""

    @pytest.mark.parametrize("lead", [(3,), (2, 2)], ids=["3d", "4d"])
    @pytest.mark.parametrize("frozen", [None, "q", "k", "v"])
    def test_gradient(self, lead, frozen):
        rng = np.random.default_rng(30)
        T, d, h = 5, 8, 2
        with nc.use_dtype(np.float64):
            qkv = {name: (nc.as_tensor if name == frozen else nc.param)(rand(rng, *lead, T, d))
                   for name in "qkv"}
            mask = _causal_padded_mask(rng, lead, T)
            keep = ops.dropout_mask((*lead, h, T, T), 0.3, rng)
            wts = nc.as_tensor(rand(rng, *lead, T, d))
            trained = {name: t for name, t in qkv.items() if name != frozen}
            report = nc.grad_check(
                lambda: (ops.attention(qkv["q"], qkv["k"], qkv["v"], h, mask, keep, 0.3)
                         * wts).sum(), trained)
            assert report.max_rel_error < 1e-5, report.per_param
            if frozen is not None:
                assert qkv[frozen].grad is None

    def test_gradient_with_key_lengths_and_cross_lengths(self):
        """Through layers.padding_masks' key mask, with Tq != Tk."""
        from prefixasr.layers import padding_masks
        rng = np.random.default_rng(31)
        with nc.use_dtype(np.float64):
            q = nc.param(rand(rng, 3, 4, 6))
            k, v = nc.param(rand(rng, 3, 7, 6)), nc.param(rand(rng, 3, 7, 6))
            keep = ops.dropout_mask((3, 3, 4, 7), 0.2, rng)
            wts = nc.as_tensor(rand(rng, 3, 4, 6))
            report = nc.grad_check(
                lambda: (ops.attention(q, k, v, 3, padding_masks([7, 2, 5], 7, np.float64)[1],
                                       keep, 0.2) * wts).sum(), {"q": q, "k": k, "v": v})
            assert report.max_rel_error < 1e-5, report.per_param

    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)], ids=["2d", "3d", "4d"])
    def test_matches_composed_ops_bit_for_bit(self, lead):
        rng = np.random.default_rng(32)
        T, d, h = 9, 16, 4
        mask = _causal_padded_mask(rng, lead, T).astype(np.float32)
        keep = ops.dropout_mask((*lead, h, T, T), 0.1, rng)
        g = rand(rng, *lead, T, d).astype(np.float32)
        results = []
        for build in (ops.attention, _composed_attention):
            gen = np.random.default_rng(33)
            q, k, v = (nc.param(rand(gen, *lead, T, d).astype(np.float32)) for _ in range(3))
            out = build(q, k, v, h, mask, keep, 0.1)
            out.backward(g)
            assert out.data.dtype == np.float32
            results.append([out.data, q.grad, k.grad, v.grad])
        for fused, composed in zip(*results):
            np.testing.assert_array_equal(fused, composed)


class TestLoraLinear:
    @pytest.mark.parametrize("shape", [(5, 6), (2, 3, 6)], ids=["2d", "3d"])
    def test_gradient_frozen_base(self, shape):
        rng = np.random.default_rng(34)
        with nc.use_dtype(np.float64):
            x = nc.param(rand(rng, *shape))
            w, b = nc.as_tensor(rand(rng, 6, 4)), nc.as_tensor(rand(rng, 4))
            down, up = nc.param(rand(rng, 6, 2)), nc.param(rand(rng, 2, 4))
            wts = nc.as_tensor(rand(rng, *shape[:-1], 4))
            report = nc.grad_check(
                lambda: (ops.lora_linear(x, w, b, down, up, 8.0) * wts).sum(),
                {"x": x, "down": down, "up": up})
            assert report.max_rel_error < 1e-5, report.per_param
            assert w.grad is None and b.grad is None

    def test_gradient_trained_base(self):
        rng = np.random.default_rng(35)
        with nc.use_dtype(np.float64):
            x, w, b = nc.param(rand(rng, 4, 5)), nc.param(rand(rng, 5, 3)), nc.param(rand(rng, 3))
            down, up = nc.param(rand(rng, 5, 2)), nc.param(rand(rng, 2, 3))
            wts = nc.as_tensor(rand(rng, 4, 3))
            report = nc.grad_check(
                lambda: (ops.lora_linear(x, w, b, down, up, 0.5) * wts).sum(),
                {"x": x, "w": w, "b": b, "down": down, "up": up})
            assert report.max_rel_error < 1e-5, report.per_param

    def test_matches_composed_ops_bit_for_bit(self):
        rng = np.random.default_rng(36)
        x, w, b = (nc.as_tensor(rand(rng, *s).astype(np.float32)) for s in ((7, 6), (6, 4), (4,)))
        down, up = (nc.as_tensor(rand(rng, *s).astype(np.float32)) for s in ((6, 2), (2, 4)))
        composed = ops.linear(x, w, b) + ((x @ down) @ up) * 8.0
        fused = ops.lora_linear(x, w, b, down, up, 8.0)
        assert fused.data.dtype == np.float32
        np.testing.assert_array_equal(fused.data, composed.data)


class TestMake:
    """Op results are built without Tensor.__init__ (see also
    test_no_grad_blocks_tape)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_preserved(self, dtype):
        with nc.use_dtype(dtype):
            x, w, b = nc.param(np.ones((2, 3))), nc.param(np.ones((3, 2))), nc.param(np.ones(2))
            for y in (x * 2.0, ops.exp(x), ops.layer_norm(x, x.sum(axis=0), x.mean(axis=0)),
                      x.sum(), ops.lora_linear(x, w, b, w, w.transpose() @ w, 2.0),
                      ops.attention(x, x, x, 1)):
                assert y.data.dtype == dtype

    def test_reductions_are_arrays(self):
        x = nc.param(np.arange(6.0).reshape(2, 3))
        for y in (x.sum(), x.mean(), x.sum() * 2.0, -x.mean(), ops.exp(x.sum())):
            assert type(y.data) is np.ndarray and y.shape == ()
            assert isinstance(y.item(), float)
        assert (x.sum() * 2.0).item() == 30.0


# -- the lean tape: the same bits as the ops that kept every intermediate ----
# The reference formulas below are the ops as they were when the tape kept
# the sigmoid, xhat and the dropped attention weights, and dropout masks were
# float arrays holding 0 or 1/(1-p).

def _ref_dropout_mask(shape, p, rng, dtype):
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


def _ref_swish(x, g):
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, g * (sig + x * sig * (1.0 - sig))


def _ref_glu(a, g):
    x, gate = np.split(a, 2, axis=-1)
    sig = 1.0 / (1.0 + np.exp(-gate))
    return x * sig, np.concatenate([g * sig, g * x * sig * (1.0 - sig)], axis=-1)


def _ref_layer_norm(x, gain, bias, g, eps=1e-5):
    d = x.shape[-1]
    mu = np.add.reduce(x, -1, keepdims=True) / d
    xc = x - mu
    var = np.add.reduce(xc * xc, -1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    dxhat = g * gain
    dx = inv * (dxhat - np.add.reduce(dxhat, -1, keepdims=True) / d
                - xhat * (np.add.reduce(dxhat * xhat, -1, keepdims=True) / d))
    lead = tuple(range(x.ndim - 1))
    return xhat * gain + bias, dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def _ref_attention(q, k, v, num_heads, mask, keep, g):
    *lead, Tq, d = q.shape
    dh = d // num_heads
    n = len(lead)
    heads = (*range(n), n + 1, n, n + 2)
    swap = (*range(n + 1), n + 2, n + 1)

    def split(a):
        return a.reshape(*a.shape[:-1], num_heads, dh).transpose(heads)

    def merge(a):
        return a.transpose(heads).reshape(*lead, a.shape[-2], d)

    qh, kh, vh = split(q), split(k), split(v)
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2))
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=scores.dtype)
    scores = scores * scale
    if mask is not None:
        scores = scores + mask
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    weights = e / e.sum(axis=-1, keepdims=True)
    kept = weights if keep is None else weights * keep
    out = merge(np.matmul(kept, vh))
    go = split(g)
    gv = merge(np.matmul(kept.transpose(swap), go))
    gw = np.matmul(go, vh.transpose(swap))
    if keep is not None:
        gw = gw * keep
    gs = (gw - (gw * weights).sum(axis=-1, keepdims=True)) * weights * scale
    gq = merge(np.matmul(gs, kh))
    gk = merge(np.matmul(qh.transpose(swap), gs).transpose(swap))
    return out, gq, gk, gv


def _assert_same_bits(got, expected):
    """Bitwise equality, so that -0.0 differs from 0.0."""
    assert got.dtype == expected.dtype and got.shape == expected.shape
    uint = {4: np.uint32, 8: np.uint64}[got.dtype.itemsize]
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(uint),
                                  np.ascontiguousarray(expected).view(uint))


def _op_grads(out, g, *inputs):
    """The gradients out's tape node hands to `inputs` for the upstream g,
    before the leaves add them to a zero grad (which would turn -0.0 into
    0.0); None for an input it gives none."""
    grads = {id(t): pg for t, pg in out._backward(g)}
    return [grads.get(id(t)) for t in inputs]


def _signed(rng, dtype, *shape):
    """Negative and positive values, with some exact zeros of each sign."""
    x = 3.0 * rng.standard_normal(shape)
    x.flat[::7] = 0.0
    x.flat[3::11] = -0.0
    return x.astype(dtype)


# float32's 1/(1-p) differs from float64's rounded to float32 at this rate
P_DROP = 0.15


def _leaf(data):
    """A trained leaf that keeps data's dtype."""
    t = nc.Tensor(data)
    t.requires_grad = True
    return t


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestLeanTapeBits:
    """The ops that keep less for backward give the reference's bits, forward
    and backward, and draw the same random numbers."""

    def test_swish_and_glu(self, dtype):
        rng = np.random.default_rng(40)
        for op, ref in ((ops.swish, _ref_swish), (ops.glu, _ref_glu)):
            x = _leaf(_signed(rng, dtype, 3, 5, 8))
            out = op(x)
            g = _signed(rng, dtype, *out.shape)
            expect_out, expect_gx = ref(x.data, g)
            _assert_same_bits(out.data, expect_out)
            _assert_same_bits(*_op_grads(out, g, x), expect_gx)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_layer_norm(self, dtype, frozen):
        rng = np.random.default_rng(41)
        x = _leaf(_signed(rng, dtype, 4, 6, 16))
        gain, bias = (nc.Tensor(_signed(rng, dtype, 16)) for _ in range(2))
        gain.requires_grad = bias.requires_grad = not frozen
        out = ops.layer_norm(x, gain, bias)
        g = _signed(rng, dtype, *out.shape)
        expected = _ref_layer_norm(x.data, gain.data, bias.data, g)
        _assert_same_bits(out.data, expected[0])
        got = _op_grads(out, g, x, gain, bias)
        _assert_same_bits(got[0], expected[1])
        if frozen:
            assert got[1:] == [None, None]
        else:
            _assert_same_bits(got[1], expected[2])
            _assert_same_bits(got[2], expected[3])

    def test_masked_ffn(self, dtype):
        rng = np.random.default_rng(42)
        x = _leaf(_signed(rng, dtype, 3, 7, 12))
        draw, ref_draw = np.random.default_rng(5), np.random.default_rng(5)
        keep = ops.dropout_mask((3, 7, 12), P_DROP, draw)
        keepf = _ref_dropout_mask((3, 7, 12), P_DROP, ref_draw, dtype)
        assert keep.dtype == np.bool_ and draw.random() == ref_draw.random()
        out = ops.dropout(x, keep, P_DROP)
        g = _signed(rng, dtype, *out.shape)
        _assert_same_bits(out.data, x.data * keepf)
        _assert_same_bits(*_op_grads(out, g, x), g * keepf)

    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)], ids=["2d", "3d", "4d"])
    def test_attention(self, dtype, dropout, lead):
        rng = np.random.default_rng(43)
        T, d, h, p = 9, 12, 4, P_DROP  # dh = 3: the scale 1/sqrt(3) is inexact
        mask = _causal_padded_mask(rng, lead, T).astype(dtype)
        q, k, v = (_leaf(_signed(rng, dtype, *lead, T, d)) for _ in range(3))
        keep = keepf = None
        if dropout:
            draw, ref_draw = np.random.default_rng(6), np.random.default_rng(6)
            keep = ops.dropout_mask((*lead, h, T, T), p, draw)
            keepf = _ref_dropout_mask((*lead, h, T, T), p, ref_draw, dtype)
            assert draw.random() == ref_draw.random()
        out = ops.attention(q, k, v, h, mask, keep, p)
        g = _signed(rng, dtype, *out.shape)
        expected = _ref_attention(q.data, k.data, v.data, h, mask, keepf, g)
        for got, want in zip((out.data, *_op_grads(out, g, q, k, v)), expected):
            _assert_same_bits(got, want)

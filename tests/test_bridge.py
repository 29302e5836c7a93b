import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefixasr import numcore as nc
from prefixasr.bridge import Bridge, StackConfig, stack_frames, stacked_length
from prefixasr.numcore import Tensor


class TestStackFrames:
    def test_six_frames_factor_three(self):
        x = np.random.default_rng(0).standard_normal((6, 512)).astype(np.float32)
        out = stack_frames(x, 3)
        assert out.shape == (2, 1536)
        assert np.array_equal(out.data[0, :512], x[0])
        assert np.array_equal(out.data[0, 512:1024], x[1])
        assert np.array_equal(out.data[1, 1024:], x[5])

    def test_n_one_is_identity(self):
        x = np.random.default_rng(1).standard_normal((5, 8)).astype(np.float32)
        out = stack_frames(x, 1)
        assert np.array_equal(out.data, x)

    def test_tail_zero_padded(self):
        x = np.ones((7, 4), dtype=np.float32)
        out = stack_frames(x, 3)
        assert out.shape == (3, 12)
        assert np.all(out.data[2, 4:] == 0.0)
        assert np.all(out.data[2, :4] == 1.0)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            stack_frames(np.ones((4, 2), dtype=np.float32), 0)

    def test_unstack_recovers_input(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((9, 6)).astype(np.float32)
        out = stack_frames(x, 3)
        assert np.array_equal(out.data.reshape(9, 6), x)

    @given(st.integers(1, 500), st.sampled_from([1, 2, 3, 6, 12]))
    @settings(max_examples=100, deadline=None)
    def test_length_law(self, U, n):
        x = np.zeros((U, 4), dtype=np.float32)
        assert stack_frames(x, n).shape == (-(-U // n), 4 * n)


class TestProject:
    def test_zero_input_zero_bias_zero_output(self):
        cfg = StackConfig(n=2, d_encoder=8, d_llm=16)
        b = Bridge(cfg, seed=0)
        out = b.project(Tensor(np.zeros((3, 16), dtype=np.float32)))
        assert np.allclose(out.data, 0.0)

    def test_output_width_is_d_llm(self):
        for n in (1, 3, 12):
            cfg = StackConfig(n=n, d_encoder=8, d_llm=24)
            b = Bridge(cfg, seed=0)
            x = np.zeros((40, 8), dtype=np.float32)
            assert b.forward(Tensor(x)).shape[1] == 24

    def test_width_mismatch_rejected(self):
        cfg = StackConfig(n=2, d_encoder=8, d_llm=16)
        b = Bridge(cfg, seed=0)
        with pytest.raises(ValueError, match="width"):
            b.project(Tensor(np.zeros((3, 8), dtype=np.float32)))

    def test_gradient_through_stack_and_project(self):
        with nc.use_dtype(np.float64):
            cfg = StackConfig(n=3, d_encoder=4, d_llm=6)
            b = Bridge(cfg, seed=1)
            x = nc.param(np.random.default_rng(3).standard_normal((7, 4)))
            params = {"x": x, **b.params}
            report = nc.grad_check(lambda: b.forward(x).mean(), params)
            assert report.max_rel_error < 1e-5


def test_twenty_seconds_at_n12_compresses_below_22():
    # 20 s of 10 ms features -> T ~= 1998 frames
    T = 1 + (20 * 16000 - 400) // 160
    U = -(-T // 8)
    M = stacked_length(U, 12)
    assert M <= 22

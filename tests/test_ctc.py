import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from prefixasr import ctc
from prefixasr import numcore as nc
from prefixasr.numcore import ops


def uniform_lp(U, K):
    return np.full((U, K), -math.log(K))


def random_lp(rng, U, K):
    logits = rng.standard_normal((U, K))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


class TestCtcLoss:
    def test_single_frame_uniform(self):
        # V=2 plus blank -> p(a) = 1/3
        loss = ctc.ctc_loss(uniform_lp(1, 3), [1])
        assert loss.item() == pytest.approx(math.log(3), abs=1e-9)

    def test_two_frames_uniform_single_label(self):
        # paths {aa, a-, -a} out of 9 -> p = 3/9
        loss = ctc.ctc_loss(uniform_lp(2, 3), [1])
        assert loss.item() == pytest.approx(math.log(3), abs=1e-9)

    def test_infeasible_returns_inf(self):
        loss = ctc.ctc_loss(uniform_lp(1, 3), [1, 2])
        assert math.isinf(loss.item())
        loss = ctc.ctc_loss(uniform_lp(2, 3), [1, 1])  # repeat needs a blank
        assert math.isinf(loss.item())

    def test_empty_label_all_blank_path(self):
        rng = np.random.default_rng(0)
        lp = random_lp(rng, 4, 3)
        loss = ctc.ctc_loss(lp, [])
        assert loss.item() == pytest.approx(-lp[:, 0].sum(), abs=1e-6)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            U = int(rng.integers(1, 9))
            V = int(rng.integers(1, 5))
            L = int(rng.integers(0, 4))
            labels = rng.integers(1, V + 1, size=L).tolist()
            lp = random_lp(rng, U, V + 1)
            got = ctc.ctc_loss(lp, labels).item()
            want = ctc.ctc_brute_force(lp, labels)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-6)

    def test_full_small_grid_oracle_equivalence(self):
        # every U<=6, L<=3, V<=3 with random logits
        rng = np.random.default_rng(2)
        for U in range(1, 7):
            for V in range(1, 4):
                for L in range(0, 4):
                    labels = rng.integers(1, V + 1, size=L).tolist()
                    lp = random_lp(rng, U, V + 1)
                    got = ctc.ctc_loss(lp, labels).item()
                    want = ctc.ctc_brute_force(lp, labels)
                    if math.isinf(want):
                        assert math.isinf(got)
                    else:
                        assert got == pytest.approx(want, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        with nc.use_dtype(np.float64):
            logits = nc.param(rng.standard_normal((5, 4)))
            labels = [1, 3]

            def loss_fn():
                return ctc.ctc_loss(ops.log_softmax(logits), labels)

            report = nc.grad_check(loss_fn, {"logits": logits})
            assert report.max_rel_error < 1e-6

    def test_permutation_covariant_under_relabeling(self):
        rng = np.random.default_rng(4)
        lp = random_lp(rng, 5, 4)  # blank + symbols 1..3
        perm = {1: 3, 2: 1, 3: 2}
        lp_perm = lp.copy()
        for a, b in perm.items():
            lp_perm[:, b] = lp[:, a]
        labels = [1, 2]
        relabeled = [perm[l] for l in labels]
        a = ctc.ctc_loss(lp, labels).item()
        b = ctc.ctc_loss(lp_perm, relabeled).item()
        assert a == pytest.approx(b, abs=1e-9)


def ctc_batches():
    """(V, [(frames, labels)]): B <= 5 items, U <= 6 frames and V <= 4
    symbols counting blank, so empty labels, repeats, infeasible items and
    padding in U and S all turn up."""
    def items(V):
        item = st.tuples(st.integers(1, 6), st.lists(st.integers(1, V - 1), max_size=4))
        return st.lists(item, min_size=1, max_size=5)
    return st.integers(2, 4).flatmap(lambda V: st.tuples(st.just(V), items(V)))


class TestBatchedCtc:
    # (frames, labels): padding in both U and S, an empty label sequence, a
    # repeat that needs a blank, and an infeasible item
    ITEMS = [(6, [1, 2, 1]), (3, [3]), (5, []), (4, [2, 2]), (2, [1, 2, 3]), (6, [3, 1])]

    def batch(self, rng):
        U = max(u for u, _ in self.ITEMS)
        lp = np.stack([random_lp(rng, U, 4) for _ in self.ITEMS])
        return nc.param(lp), [u for u, _ in self.ITEMS], [l for _, l in self.ITEMS]

    @given(ctc_batches(), st.integers(0, 2**32 - 1))
    @example((4, ITEMS), 12)
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    def test_matches_single_sequences(self, batch, seed):
        V, items = batch
        rng = np.random.default_rng(seed)
        frames = [u for u, _ in items]
        with nc.use_dtype(np.float64):
            lp = nc.param(np.stack([random_lp(rng, max(frames), V) for _ in items]))
            losses = ctc.ctc_losses(lp, frames, [l for _, l in items])
            feasible = np.flatnonzero(np.isfinite(losses.data))
            if len(feasible):
                ops.embedding(losses, feasible).sum().backward()
            batched_grad = lp.grad if lp.grad is not None else np.zeros_like(lp.data)
            for i, (u, l) in enumerate(items):
                item = nc.param(lp.data[i, :u])
                single = ctc.ctc_loss(item, l)
                entry = float(losses.data[i])
                if math.isinf(single.item()):
                    assert math.isinf(entry)
                    assert not batched_grad[i].any()
                    continue
                assert entry == pytest.approx(single.item(), abs=1e-12)
                single.backward()
                np.testing.assert_allclose(batched_grad[i, :u], item.grad, atol=1e-12)
                assert not batched_grad[i, u:].any()

    @given(ctc_batches(), st.integers(0, 2**32 - 1))
    @example((4, ITEMS), 13)
    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    def test_gradient_matches_finite_differences(self, batch, seed):
        V, items = batch
        rng = np.random.default_rng(seed)
        frames = [u for u, _ in items]
        labels = [l for _, l in items]
        assume(any(ctc.min_frames(l) <= u for u, l in items))
        with nc.use_dtype(np.float64):
            logits = nc.param(rng.standard_normal((len(items), max(frames), V)))

            def loss_fn():
                losses = ctc.ctc_losses(ops.log_softmax(logits), frames, labels)
                return ops.embedding(losses, np.flatnonzero(np.isfinite(losses.data))).sum()

            report = nc.grad_check(loss_fn, {"logits": logits})
            assert report.max_rel_error < 1e-6

    def test_one_node_with_zero_gradient_rows_for_infeasible_items(self):
        """The batch is one (B,) node over the log-probs; the infeasible
        entry is +inf, and its gradient row stays 0 even when the upstream
        gradient at that entry is not."""
        rng = np.random.default_rng(14)
        with nc.use_dtype(np.float64):
            lp, frames, labels = self.batch(rng)
            losses = ctc.ctc_losses(lp, frames, labels)
            assert losses.shape == (len(self.ITEMS),)
            assert losses._parents == (lp,)
            assert np.isinf(losses.data).tolist() == [i == 4 for i in range(len(self.ITEMS))]
            losses.backward(np.ones(len(self.ITEMS)))
            assert np.isfinite(lp.grad).all()
            assert not lp.grad[4].any()
            assert all(lp.grad[i].any() for i in (0, 1, 2, 3, 5))

    def test_all_infeasible_batch_is_a_constant(self):
        lp = nc.param(np.stack([uniform_lp(2, 4)] * 2))
        losses = ctc.ctc_losses(lp, [2, 1], [[1, 2, 3], [1, 1]])
        assert losses.shape == (2,) and np.isinf(losses.data).all()
        assert losses._backward is None and not losses.requires_grad


class TestBruteForce:
    def test_label_longer_than_frames(self):
        assert math.isinf(ctc.ctc_brute_force(uniform_lp(1, 3), [1, 2]))

    def test_refuses_large_u(self):
        with pytest.raises(ValueError):
            ctc.ctc_brute_force(uniform_lp(13, 3), [1])


class TestGreedyDecode:
    def test_collapse_rule(self):
        lp = np.full((5, 3), -10.0)
        for t, k in enumerate([0, 1, 1, 0, 2]):
            lp[t, k] = 0.0
        assert ctc.ctc_greedy_decode(lp) == [1, 2]

    def test_all_blank(self):
        lp = np.zeros((4, 3))
        lp[:, 0] = 1.0
        assert ctc.ctc_greedy_decode(lp) == []

    def test_blank_separates_repeats(self):
        lp = np.full((3, 3), -10.0)
        for t, k in enumerate([1, 0, 1]):
            lp[t, k] = 0.0
        assert ctc.ctc_greedy_decode(lp) == [1, 1]


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_loss_property_oracle(seed):
    rng = np.random.default_rng(seed)
    U = int(rng.integers(1, 7))
    V = int(rng.integers(1, 4))
    L = int(rng.integers(0, 4))
    labels = rng.integers(1, V + 1, size=L).tolist()
    lp = random_lp(rng, U, V + 1)
    got = ctc.ctc_loss(lp, labels).item()
    want = ctc.ctc_brute_force(lp, labels)
    assert (math.isinf(got) and math.isinf(want)) or abs(got - want) < 1e-6

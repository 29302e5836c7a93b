"""Connectionist temporal classification in log space.

Blank id is 0; real labels are 1..V. The loss is a differentiable primitive:
forward recursion gives the negative log-likelihood, the forward-backward
product gives the analytic gradient w.r.t. the per-frame log-probabilities.
There is one recursion: the backward variables are the forward recursion run
over the lattice reversed in time and states. A path-enumeration oracle
(`ctc_brute_force`) verifies both.
"""

from __future__ import annotations

import itertools

import numpy as np

from .numcore import Tensor, as_tensor
from .numcore.tensor import make

BLANK = 0
NEG_INF = -np.inf


def extended_labels(labels) -> np.ndarray:
    ext = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    ext[1::2] = labels
    return ext


def min_frames(labels) -> int:
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def _alpha(em: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Forward log-probabilities (B, U, S) from emissions em[b, t, s] =
    lp[b, t, ext[b, s]]. Mass moves only rightwards in s, so the padding
    past an item's last state never reaches its real states."""
    B, U, S = em.shape
    skip = (ext[:, 2:] != BLANK) & (ext[:, 2:] != ext[:, :-2])
    alpha = np.full((B, U, S), NEG_INF)
    alpha[:, 0, :2] = em[:, 0, :2]
    for t in range(1, U):
        prev = alpha[:, t - 1]
        acc = prev.copy()
        acc[:, 1:] = np.logaddexp(prev[:, 1:], prev[:, :-1])
        acc[:, 2:] = np.where(skip, np.logaddexp(acc[:, 2:], prev[:, :-2]), acc[:, 2:])
        alpha[:, t] = acc + em[:, t]
    return alpha


def ctc_losses(log_probs: Tensor, frames, labels) -> Tensor:
    """Per-item negative log-likelihoods of a padded batch, as one (B,) node.

    log_probs (B, U, V) holds frames[b] real frames for item b; labels[b]
    is its label sequence. An infeasible item is +inf and gets a zero
    gradient row; a batch with no feasible item is a constant. The
    recursions run over (B, S) at once (Graves et al. 2006, batched as
    warp-ctc does it).
    """
    x = as_tensor(log_probs)
    labels = [list(l) for l in labels]
    frames = np.asarray(frames, dtype=np.int64)
    out = np.full(len(labels), np.inf, dtype=x.data.dtype)
    rows = np.flatnonzero([min_frames(l) <= u for l, u in zip(labels, frames)])
    if len(rows) == 0:
        return Tensor(out)
    frames = frames[rows]
    states = np.array([2 * len(labels[r]) + 1 for r in rows])
    ext = np.zeros((len(rows), states.max()), dtype=np.int64)
    for i, r in enumerate(rows):
        ext[i, :states[i]] = extended_labels(labels[r])
    U = frames.max()
    lp = np.asarray(x.data[rows, :U], dtype=np.float64)
    em = np.take_along_axis(lp, ext[:, None, :], axis=2)
    # both recursions run on emissions that are -inf past each item's frames
    # and states, so logaddexp over padding takes its equal-arguments path
    t, s = np.arange(U), np.arange(ext.shape[1])
    pad_t, pad_s = t >= frames[:, None], s >= states[:, None]
    em_pad = np.where(pad_t[:, :, None] | pad_s[:, None, :], NEG_INF, em)
    alpha = _alpha(em_pad, ext)
    items = np.arange(len(rows))
    end = alpha[items, frames - 1]
    last = end[items, states - 1]
    second = np.where(states > 1, end[items, np.maximum(states - 2, 0)], NEG_INF)
    log_p = np.logaddexp(last, second)
    out[rows] = -log_p

    def backward(g):
        # beta is alpha over each item's lattice read back to front: real frames
        # and states reversed (a map that is its own inverse), padding in place
        t_at = np.where(pad_t, t, frames[:, None] - 1 - t)
        s_at = np.where(pad_s, s, states[:, None] - 1 - s)
        at = (items[:, None, None] * U + t_at[:, :, None]) * len(s) + s_at[:, None, :]
        beta = np.take(_alpha(np.take(em_pad, at), np.take_along_axis(ext, s_at, 1)), at)
        # occupancy of symbol ext[s] at frame t; emission counted once
        occ = alpha + beta - em - log_p[:, None, None]
        grad = np.zeros((len(rows), U, x.data.shape[2]))
        for j in range(ext.shape[1]):
            grad[items, :, ext[:, j]] += np.exp(occ[:, :, j])
        full = np.zeros_like(x.data)
        full[rows, :U] = -g[rows, None, None] * grad
        return [(x, full)]

    return make(out, (x,), backward)


def ctc_loss(log_probs: Tensor | np.ndarray, labels) -> Tensor:
    """Negative log-likelihood of one (U, V) sequence as a scalar; +inf (no
    gradient) if infeasible. The batch-of-one case of ctc_losses."""
    x = as_tensor(log_probs)
    return ctc_losses(x.reshape(1, *x.shape), [x.shape[0]], [labels]).reshape()


def ctc_brute_force(log_probs: np.ndarray, labels, max_frames: int = 12) -> float:
    """NLL by summing every path whose collapse equals labels. Exponential."""
    lp = np.asarray(log_probs, dtype=np.float64)
    U, K = lp.shape
    if U > max_frames:
        raise ValueError(f"refusing brute force for U={U} > {max_frames}")
    labels = list(labels)
    total = NEG_INF
    for path in itertools.product(range(K), repeat=U):
        if collapse(path) == labels:
            total = np.logaddexp(total, sum(lp[t, k] for t, k in enumerate(path)))
    return float(-total)


def collapse(path) -> list[int]:
    """Merge repeats, then drop blanks."""
    out = []
    prev = None
    for k in path:
        if k != prev and k != BLANK:
            out.append(int(k))
        prev = k
    return out


def ctc_greedy_decode(log_probs: np.ndarray) -> list[int]:
    return collapse(np.asarray(log_probs).argmax(axis=1))

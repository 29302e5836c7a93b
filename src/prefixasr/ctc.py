"""Connectionist temporal classification in log space.

Blank id is 0; real labels are 1..V. The loss is a differentiable primitive:
forward recursion gives the negative log-likelihood, the forward-backward
product gives the analytic gradient w.r.t. the per-frame log-probabilities.
A path-enumeration oracle (`ctc_brute_force`) verifies both.
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


def _alpha(lp: np.ndarray, ext: np.ndarray) -> np.ndarray:
    U = lp.shape[0]
    S = len(ext)
    alpha = np.full((U, S), NEG_INF)
    alpha[0, 0] = lp[0, ext[0]]
    if S > 1:
        alpha[0, 1] = lp[0, ext[1]]
    skip = np.zeros(S, dtype=bool)
    skip[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    for t in range(1, U):
        prev = alpha[t - 1]
        stay = prev
        diag = np.full(S, NEG_INF)
        diag[1:] = prev[:-1]
        acc = np.logaddexp(stay, diag)
        jump = np.full(S, NEG_INF)
        jump[2:] = prev[:-2]
        acc = np.where(skip, np.logaddexp(acc, jump), acc)
        alpha[t] = acc + lp[t, ext]
    return alpha


def _beta(lp: np.ndarray, ext: np.ndarray) -> np.ndarray:
    U = lp.shape[0]
    S = len(ext)
    beta = np.full((U, S), NEG_INF)
    beta[U - 1, S - 1] = lp[U - 1, ext[S - 1]]
    if S > 1:
        beta[U - 1, S - 2] = lp[U - 1, ext[S - 2]]
    skip = np.zeros(S, dtype=bool)
    skip[:-2] = (ext[:-2] != BLANK) & (ext[:-2] != ext[2:])
    for t in range(U - 2, -1, -1):
        nxt = beta[t + 1]
        stay = nxt
        diag = np.full(S, NEG_INF)
        diag[:-1] = nxt[1:]
        acc = np.logaddexp(stay, diag)
        jump = np.full(S, NEG_INF)
        jump[:-2] = nxt[2:]
        acc = np.where(skip, np.logaddexp(acc, jump), acc)
        beta[t] = acc + lp[t, ext]
    return beta


def ctc_loss(log_probs: Tensor | np.ndarray, labels) -> Tensor:
    """Negative log-likelihood as a tape node; +inf (no gradient) if infeasible."""
    x = as_tensor(log_probs)
    labels = list(labels)
    lp = np.asarray(x.data, dtype=np.float64)
    U, _ = lp.shape
    if min_frames(labels) > U:
        return Tensor(np.asarray(np.inf, dtype=x.data.dtype))
    ext = extended_labels(labels)
    alpha = _alpha(lp, ext)
    if len(ext) > 1:
        log_p = np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    else:
        log_p = alpha[-1, -1]

    def backward(g):
        beta = _beta(lp, ext)
        # occupancy of symbol ext[s] at frame t; emission counted once
        occ = alpha + beta - lp[:, ext] - log_p
        grad = np.zeros_like(lp)
        for s, k in enumerate(ext):
            grad[:, k] += np.exp(occ[:, s])
        return [(x, (-g * grad).astype(x.data.dtype))]

    return make(np.asarray(-log_p, dtype=x.data.dtype), (x,), backward)


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

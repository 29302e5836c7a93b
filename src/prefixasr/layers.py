"""Shared building blocks: parameter init, dropout masks and multi-head
attention."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .numcore import Tensor, param
from .numcore import ops


def init_weight(rng: np.random.Generator, d_in: int, d_out: int) -> Tensor:
    scale = 1.0 / np.sqrt(d_in)
    return param(rng.uniform(-scale, scale, size=(d_in, d_out)))


def init_bias(d_out: int) -> Tensor:
    return param(np.zeros(d_out))


def init_ones(d_out: int) -> Tensor:
    return param(np.ones(d_out))


def init_conv_weight(rng: np.random.Generator, k: int, d_in: int, d_out: int) -> Tensor:
    scale = 1.0 / np.sqrt(k * d_in)
    return param(rng.uniform(-scale, scale, size=(k, d_in, d_out)))


def init_depthwise_weight(rng: np.random.Generator, k: int, channels: int) -> Tensor:
    scale = 1.0 / np.sqrt(k)
    return param(rng.uniform(-scale, scale, size=(k, channels)))


def init_embedding(rng: np.random.Generator, num: int, dim: int) -> Tensor:
    return param(0.02 * rng.standard_normal((num, dim)))


def dropout_keeps(rng: np.random.Generator | None, p: float, num_layers: int,
                  num_heads: int, ffn_dim: int, lengths: Sequence[int],
                  dtype) -> list[tuple[np.ndarray | None, np.ndarray | None]]:
    """Dropout keep masks for a right-padded batch whose items have `lengths`
    positions, S = max(lengths): per block, (attention keep (B, h, S, S),
    FFN keep (B, S, ffn_dim)). Drawn item by item, then block by block,
    attention first; padding gets 0. All None when there is no rng (not
    training) or p is 0; then nothing is drawn."""
    if rng is None or p <= 0.0:
        return [(None, None)] * num_layers
    B, S = len(lengths), max(lengths)
    att = np.zeros((num_layers, B, num_heads, S, S), dtype)
    ffn = np.zeros((num_layers, B, S, ffn_dim), dtype)
    for b, n in enumerate(lengths):
        for i in range(num_layers):
            att[i, b, :, :n, :n] = ops.dropout_mask((num_heads, n, n), p, rng, dtype)
            ffn[i, b, :n] = ops.dropout_mask((n, ffn_dim), p, rng, dtype)
    return list(zip(att, ffn))


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
              mask: np.ndarray | None = None,
              key_lengths: Sequence[int] | None = None,
              keep: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention over one sequence or a padded batch, as
    one ops.attention node.

    q: (..., Tq, d), k/v: (..., Tk, d). mask is additive (-inf style) and
    broadcasts to (..., h, Tq, Tk). key_lengths (one per batch item) bans
    the padded keys at and past each length. keep is a dropout keep mask
    over the attention weights (see dropout_keeps). Returns (..., Tq, d).
    """
    if key_lengths is not None:
        cols = np.arange(k.shape[-2])
        pad = np.where(cols < np.asarray(key_lengths)[:, None], 0.0, -1e9)
        pad = pad[:, None, None, :].astype(q.data.dtype)  # (B, 1, 1, Tk)
        mask = pad if mask is None else mask + pad
    return ops.attention(q, k, v, num_heads, mask, keep)


def causal_mask(size: int, dtype=np.float32) -> np.ndarray:
    mask = np.zeros((size, size), dtype=dtype)
    mask[np.triu_indices(size, k=1)] = -1e9
    return mask

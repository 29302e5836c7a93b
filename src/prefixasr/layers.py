"""Shared building blocks: parameter init, dropout keep masks, and the
causal and padding masks that ops.attention takes."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .numcore import Tensor, param
from .numcore import ops


def init_weight(rng: np.random.Generator, *shape: int) -> Tensor:
    """Uniform in +-1/sqrt(fan_in), fan_in the product of all extents but the
    last: (d_in, d_out), conv (k, d_in, d_out) and depthwise (k, C) alike."""
    scale = 1.0 / np.sqrt(math.prod(shape[:-1]))
    return param(rng.uniform(-scale, scale, size=shape))


def init_bias(d_out: int) -> Tensor:
    return param(np.zeros(d_out))


def init_ones(d_out: int) -> Tensor:
    return param(np.ones(d_out))


def init_embedding(rng: np.random.Generator, num: int, dim: int) -> Tensor:
    return param(0.02 * rng.standard_normal((num, dim)))


def dropout_keeps(rng: np.random.Generator | None, p: float, num_layers: int,
                  num_heads: int, ffn_dim: int, lengths: Sequence[int]
                  ) -> list[tuple[np.ndarray | None, np.ndarray | None]]:
    """Boolean dropout keep masks, one byte per entry, for a right-padded
    batch whose items have `lengths` positions, S = max(lengths): per block,
    (attention keep (B, h, S, S), FFN keep (B, S, ffn_dim)). Drawn item by
    item, then block by block, attention first; padding is not kept. All
    None when there is no rng (not training) or p is 0; then nothing is
    drawn."""
    if rng is None or p <= 0.0:
        return [(None, None)] * num_layers
    B, S = len(lengths), max(lengths)
    att = np.zeros((num_layers, B, num_heads, S, S), bool)
    ffn = np.zeros((num_layers, B, S, ffn_dim), bool)
    for b, n in enumerate(lengths):
        for i in range(num_layers):
            att[i, b, :, :n, :n] = ops.dropout_mask((num_heads, n, n), p, rng)
            ffn[i, b, :n] = ops.dropout_mask((n, ffn_dim), p, rng)
    return list(zip(att, ffn))


def causal_mask(size: int, dtype=np.float32) -> np.ndarray:
    mask = np.zeros((size, size), dtype=dtype)
    mask[np.triu_indices(size, k=1)] = -1e9
    return mask


def padding_masks(lengths: Sequence[int], size: int,
                  dtype) -> tuple[np.ndarray, np.ndarray] | None:
    """Masks for a right-padded batch of `size` positions whose items have
    `lengths`: the (B, size, 1) 0/1 row mask that zeroes the padded rows,
    and the (B, 1, 1, size) additive key mask, -1e9 at the padded keys, for
    ops.attention. None when no item is padded."""
    if min(lengths) == size:
        return None
    real = np.arange(size) < np.asarray(lengths)[:, None]
    keys = np.where(real, 0.0, -1e9)[:, None, None, :].astype(dtype)
    return real[:, :, None].astype(dtype), keys

"""Stack consecutive encoder vectors and project them into LM space.

Stacking n vectors of width d gives ceil(U/n) frames of width n*d at 80n ms;
the tail frame is zero-padded. A single affine map takes each wide frame to
the LM width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import init_bias, init_weight
from .numcore import Tensor, as_tensor, ops
from .numcore.rng import generator


@dataclass
class StackConfig:
    n: int
    d_encoder: int
    d_llm: int


def stacked_length(U: int, n: int) -> int:
    return math.ceil(U / n)


def stack_frames(embeddings: Tensor | np.ndarray, n: int) -> Tensor:
    """(U, d) -> (ceil(U/n), n*d); earliest vector in the lowest slots."""
    if n < 1:
        raise ValueError(f"stacking factor must be >= 1, got {n}")
    x = as_tensor(embeddings)
    U, d = x.shape
    M = stacked_length(U, n)
    if M * n > U:
        pad = Tensor(np.zeros((M * n - U, d), dtype=x.data.dtype))
        x = ops.concat([x, pad], axis=0)
    return x.reshape(M, n * d)


class Bridge:
    def __init__(self, config: StackConfig, seed: int = 0):
        self.config = config
        rng = generator(seed, "bridge")
        self.params: dict[str, Tensor] = {
            "proj.w": init_weight(rng, config.n * config.d_encoder, config.d_llm),
            "proj.b": init_bias(config.d_llm),
        }

    def project(self, stacked: Tensor) -> Tensor:
        expect = self.config.n * self.config.d_encoder
        if stacked.shape[-1] != expect:
            raise ValueError(f"stacked width {stacked.shape[-1]} != {expect}")
        return ops.linear(stacked, self.params["proj.w"], self.params["proj.b"])

    def forward(self, embeddings: Tensor) -> Tensor:
        """(U, d_encoder) -> (ceil(U/n), d_llm)."""
        return self.project(stack_frames(embeddings, self.config.n))

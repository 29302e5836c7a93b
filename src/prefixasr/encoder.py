"""Conformer audio encoder with a stride-8 convolutional subsampler and a
detachable CTC head.

Blocks are non-macaron: pre-normalized self-attention, then a depthwise
convolution module (pointwise GLU -> depthwise conv -> layernorm -> swish ->
pointwise), then a single feed-forward net, each with a residual add. With
every residual branch's output projection zeroed, the encoder reduces to the
subsampler plus projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import EncoderSection
from .frontend import FeatureMatrix, NUM_MELS
from .layers import (attention, init_bias, init_conv_weight,
                     init_depthwise_weight, init_embedding, init_ones,
                     init_weight)
from .numcore import Tensor, ops
from .numcore.rng import generator


@dataclass
class EncoderConfig(EncoderSection):
    """The config section plus what the data decides."""
    ctc_vocab: int = 30          # non-blank symbols; head emits ctc_vocab+1
    num_features: int = NUM_MELS


class ConformerEncoder:
    def __init__(self, config: EncoderConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        rng = generator(seed, "encoder")
        c = config.subsample_channels
        p = self.params
        num_sub = int(math.log2(config.subsample_stride))
        dims = [config.num_features] + [c] * num_sub
        for i in range(num_sub):
            p[f"sub.conv{i}.w"] = init_conv_weight(rng, 3, dims[i], dims[i + 1])
            p[f"sub.conv{i}.b"] = init_bias(dims[i + 1])
        p["sub.proj.w"] = init_weight(rng, c, config.d_model)
        p["sub.proj.b"] = init_bias(config.d_model)
        p["sub.pos"] = init_embedding(rng, config.max_frames, config.d_model)
        d, f, k = config.d_model, config.ffn_dim, config.conv_kernel
        for i in range(config.num_layers):
            pre = f"block{i}."
            for name in ("ln_att", "ln_conv", "ln_mid", "ln_ffn"):
                p[pre + name + ".g"] = init_ones(d)
                p[pre + name + ".b"] = init_bias(d)
            for name in ("wq", "wk", "wv", "wo"):
                p[pre + name] = init_weight(rng, d, d)
                p[pre + name + ".b"] = init_bias(d)
            p[pre + "pw1.w"] = init_weight(rng, d, 2 * d)
            p[pre + "pw1.b"] = init_bias(2 * d)
            p[pre + "dw.w"] = init_depthwise_weight(rng, k, d)
            p[pre + "dw.b"] = init_bias(d)
            p[pre + "pw2.w"] = init_weight(rng, d, d)
            p[pre + "pw2.b"] = init_bias(d)
            p[pre + "ffn1.w"] = init_weight(rng, d, f)
            p[pre + "ffn1.b"] = init_bias(f)
            p[pre + "ffn2.w"] = init_weight(rng, f, d)
            p[pre + "ffn2.b"] = init_bias(d)
        p["ctc.w"] = init_weight(rng, d, config.ctc_vocab + 1)
        p["ctc.b"] = init_bias(config.ctc_vocab + 1)

    def parameters(self, include_ctc_head: bool = True) -> dict[str, Tensor]:
        if include_ctc_head:
            return dict(self.params)
        return {k: v for k, v in self.params.items() if not k.startswith("ctc.")}

    def subsample(self, features: Tensor) -> Tensor:
        """(T, 80) -> (ceil(T/stride), d_model) with positions added."""
        p = self.params
        x = features
        num_sub = int(math.log2(self.config.subsample_stride))
        for i in range(num_sub):
            x = ops.conv1d(x, p[f"sub.conv{i}.w"], p[f"sub.conv{i}.b"], stride=2, pad=1)
            x = ops.swish(x)
        x = ops.linear(x, p["sub.proj.w"], p["sub.proj.b"])
        U = x.shape[0]
        if U > self.config.max_frames:
            raise ValueError(f"{U} frames exceed position table {self.config.max_frames}")
        return x + ops.narrow(p["sub.pos"], 0, 0, U)

    def conformer_block(self, i: int, x: Tensor, train: bool = False,
                        rng: np.random.Generator | None = None) -> Tensor:
        p = self.params
        pre = f"block{i}."
        cfg = self.config
        drop = cfg.dropout if train else 0.0

        h = ops.layer_norm(x, p[pre + "ln_att.g"], p[pre + "ln_att.b"])
        q = ops.linear(h, p[pre + "wq"], p[pre + "wq.b"])
        k = ops.linear(h, p[pre + "wk"], p[pre + "wk.b"])
        v = ops.linear(h, p[pre + "wv"], p[pre + "wv.b"])
        att = attention(q, k, v, cfg.num_heads, dropout_p=drop, rng=rng)
        x = x + ops.linear(att, p[pre + "wo"], p[pre + "wo.b"])

        h = ops.layer_norm(x, p[pre + "ln_conv.g"], p[pre + "ln_conv.b"])
        h = ops.glu(ops.linear(h, p[pre + "pw1.w"], p[pre + "pw1.b"]))
        h = ops.depthwise_conv1d(h, p[pre + "dw.w"], p[pre + "dw.b"],
                                 pad=cfg.conv_kernel // 2)
        h = ops.layer_norm(h, p[pre + "ln_mid.g"], p[pre + "ln_mid.b"])
        h = ops.swish(h)
        x = x + ops.linear(h, p[pre + "pw2.w"], p[pre + "pw2.b"])

        h = ops.layer_norm(x, p[pre + "ln_ffn.g"], p[pre + "ln_ffn.b"])
        h = ops.swish(ops.linear(h, p[pre + "ffn1.w"], p[pre + "ffn1.b"]))
        if drop > 0.0 and rng is not None:
            h = ops.dropout(h, drop, rng)
        x = x + ops.linear(h, p[pre + "ffn2.w"], p[pre + "ffn2.b"])
        return x

    def forward(self, features: Tensor, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        x = self.subsample(features)
        for i in range(self.config.num_layers):
            x = self.conformer_block(i, x, train=train, rng=rng)
        return x

    def ctc_logits(self, embeddings: Tensor) -> Tensor:
        return ops.linear(embeddings, self.params["ctc.w"], self.params["ctc.b"])

    def encode(self, features: FeatureMatrix, train: bool = False,
               rng: np.random.Generator | None = None):
        """Returns (embeddings (U, d_model), ctc log-probs (U, ctc_vocab+1))."""
        x = Tensor(features.frames.astype(self.params["ctc.w"].data.dtype))
        emb = self.forward(x, train=train, rng=rng)
        logits = self.ctc_logits(emb)
        return emb, ops.log_softmax(logits)

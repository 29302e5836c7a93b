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
from typing import Sequence

import numpy as np

from .config import EncoderSection
from .frontend import NUM_MELS, AudioError, FeatureMatrix
from .layers import (dropout_keeps, init_bias, init_conv_weight,
                     init_depthwise_weight, init_embedding, init_ones,
                     init_weight, padding_masks)
from .numcore import Tensor, ops
from .numcore.rng import generator


@dataclass(kw_only=True)
class EncoderConfig(EncoderSection):
    """The config section plus what the tokenizer decides."""
    ctc_vocab: int  # non-blank symbols; head emits ctc_vocab+1


class ConformerEncoder:
    def __init__(self, config: EncoderConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        rng = generator(seed, "encoder")
        c = config.subsample_channels
        p = self.params
        self.num_sub = int(math.log2(config.subsample_stride))  # stride-2 convs
        dims = [NUM_MELS] + [c] * self.num_sub
        for i in range(self.num_sub):
            p[f"sub.conv{i}.w"] = init_conv_weight(rng, 3, dims[i], dims[i + 1])
            p[f"sub.conv{i}.b"] = init_bias(dims[i + 1])
        p["sub.proj.w"] = init_weight(rng, dims[-1], config.d_model)
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

    def output_lengths(self, lengths: Sequence[int]) -> list[int]:
        """Frames after the subsampler: ceil(T / subsample_stride) per item."""
        return [-(-t // self.config.subsample_stride) for t in lengths]

    def subsample(self, features: Tensor, lengths: Sequence[int]) -> Tensor:
        """(..., T, 80) -> (..., ceil(T/stride), d_model) with positions added.

        lengths, one per item of a zero-padded batch, are the real frame
        counts; before every conv after the first, the rows past each item's
        halved length are zeroed again."""
        p = self.params
        x = features
        for i in range(self.num_sub):
            if i > 0:
                lengths = [-(-t // 2) for t in lengths]
                masks = padding_masks(lengths, x.shape[-2], x.data.dtype)
                if masks is not None:
                    x = ops.mul_const(x, masks[0])
            x = ops.conv1d(x, p[f"sub.conv{i}.w"], p[f"sub.conv{i}.b"], stride=2, pad=1)
            x = ops.swish(x)
        x = ops.linear(x, p["sub.proj.w"], p["sub.proj.b"])
        U = x.shape[-2]
        if U > self.config.max_frames:
            raise AudioError(f"{U} frames exceed position table {self.config.max_frames}")
        return x + ops.narrow(p["sub.pos"], 0, 0, U)

    def conformer_block(self, i: int, x: Tensor,
                        masks: tuple[np.ndarray, np.ndarray] | None = None,
                        att_keep: np.ndarray | None = None,
                        ffn_keep: np.ndarray | None = None) -> Tensor:
        """One block over (U, d) or a padded batch (B, U, d) with its
        layers.padding_masks (None: no item is padded); the keep masks are
        dropout masks (see layers.dropout_keeps)."""
        p = self.params
        pre = f"block{i}."
        cfg = self.config
        rows, keys = masks or (None, None)

        h = ops.layer_norm(x, p[pre + "ln_att.g"], p[pre + "ln_att.b"])
        q = ops.linear(h, p[pre + "wq"], p[pre + "wq.b"])
        k = ops.linear(h, p[pre + "wk"], p[pre + "wk.b"])
        v = ops.linear(h, p[pre + "wv"], p[pre + "wv.b"])
        att = ops.attention(q, k, v, cfg.num_heads, keys, att_keep, cfg.dropout)
        x = x + ops.linear(att, p[pre + "wo"], p[pre + "wo.b"])

        h = ops.layer_norm(x, p[pre + "ln_conv.g"], p[pre + "ln_conv.b"])
        h = ops.glu(ops.linear(h, p[pre + "pw1.w"], p[pre + "pw1.b"]))
        if rows is not None:
            h = ops.mul_const(h, rows)
        h = ops.depthwise_conv1d(h, p[pre + "dw.w"], p[pre + "dw.b"],
                                 pad=cfg.conv_kernel // 2)
        h = ops.layer_norm(h, p[pre + "ln_mid.g"], p[pre + "ln_mid.b"])
        h = ops.swish(h)
        x = x + ops.linear(h, p[pre + "pw2.w"], p[pre + "pw2.b"])

        h = ops.layer_norm(x, p[pre + "ln_ffn.g"], p[pre + "ln_ffn.b"])
        h = ops.swish(ops.linear(h, p[pre + "ffn1.w"], p[pre + "ffn1.b"]))
        if ffn_keep is not None:
            h = ops.dropout(h, ffn_keep, cfg.dropout)
        x = x + ops.linear(h, p[pre + "ffn2.w"], p[pre + "ffn2.b"])
        return x

    def forward(self, features: Sequence[FeatureMatrix],
                rng: np.random.Generator | None = None) -> Tensor:
        """Encode the utterances as one zero-padded (B, T, 80) batch ->
        (B, U, d_model), U = ceil(T/stride). Dropout runs only with an rng.

        Rows past an item's output length hold junk that a loss must ignore.
        """
        cfg = self.config
        lengths = [f.frames.shape[0] for f in features]
        dtype = self.params["ctc.w"].data.dtype
        frames = np.zeros((len(features), max(lengths), NUM_MELS), dtype)
        for row, f in zip(frames, features):
            row[:len(f.frames)] = f.frames
        x = self.subsample(Tensor(frames), lengths)
        out_lengths = self.output_lengths(lengths)
        masks = padding_masks(out_lengths, x.shape[-2], dtype)
        keeps = dropout_keeps(rng, cfg.dropout, cfg.num_layers, cfg.num_heads,
                              cfg.ffn_dim, out_lengths)
        for i, (att_keep, ffn_keep) in enumerate(keeps):
            x = self.conformer_block(i, x, masks, att_keep, ffn_keep)
        return x

    def ctc_logits(self, embeddings: Tensor) -> Tensor:
        return ops.linear(embeddings, self.params["ctc.w"], self.params["ctc.b"])

    def encode(self, features: FeatureMatrix, rng: np.random.Generator | None = None):
        """Returns (embeddings (U, d_model), ctc log-probs (U, ctc_vocab+1))."""
        emb = self.forward([features], rng)
        emb = emb.reshape(*emb.shape[1:])
        return emb, ops.log_softmax(self.ctc_logits(emb))

    def encode_batch(self, features: Sequence[FeatureMatrix],
                     rng: np.random.Generator | None = None):
        """Returns (ctc log-probs (B, U, ctc_vocab+1), the real U of each item)."""
        emb = self.forward(features, rng)
        return (ops.log_softmax(self.ctc_logits(emb)),
                self.output_lengths([f.frames.shape[0] for f in features]))


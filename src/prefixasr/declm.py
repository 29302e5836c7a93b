"""Decoder-only transformer LM over mixed audio/text sequences.

Audio embeddings act as an in-context prefix: they occupy positions 0..M-1,
the bos-prefixed transcript follows at M.., and next-token loss is taken on
text positions only. The base weights stay frozen during joint training;
LoRA adapters on the attention q/k/v/output projections carry the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_DECODE_TOKENS, LmSection, LoraSection
from .frontend import AudioError
from .layers import (causal_mask, dropout_keeps, init_bias, init_embedding,
                     init_ones, init_weight)
from .numcore import Tensor, no_grad, ops, param
from .numcore.rng import generator
from .tokenizer import BOS, EOS

LORA_TARGETS = ("wq", "wk", "wv", "wo")


@dataclass(kw_only=True)
class LmConfig(LmSection):
    """The config section plus what the tokenizer decides."""
    vocab_size: int
    bos_id = BOS  # class attributes, not fields: the tokenizer fixes them
    eos_id = EOS


class DecoderLM:
    """The LM base lives in `params`. The LoRA adapters live in `lora`, keyed
    `block{i}.{wq,wk,wv,wo}.down` (d, rank) and `.up` (rank, d); the map is
    empty at rank 0. Each adapted projection adds lora_scale * x @ down @ up."""

    def __init__(self, config: LmConfig, seed: int = 0,
                 lora_rank: int = 0, lora_alpha: float = LoraSection.alpha):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.lora: dict[str, Tensor] = {}
        self.lora_scale = lora_alpha / lora_rank if lora_rank else 0.0
        rng = generator(seed, "lm")
        lora_rng = generator(seed, "lora")
        d, f = config.d_llm, config.ffn_dim
        p = self.params
        p["tok"] = init_embedding(rng, config.vocab_size, d)
        p["pos"] = init_embedding(rng, config.max_positions, d)
        for i in range(config.num_layers):
            pre = f"block{i}."
            p[pre + "ln1.g"] = init_ones(d)
            p[pre + "ln1.b"] = init_bias(d)
            for name in LORA_TARGETS:
                p[pre + name] = init_weight(rng, d, d)
                p[pre + name + ".b"] = init_bias(d)
                if lora_rank:
                    self.lora[pre + name + ".down"] = init_weight(lora_rng, d, lora_rank)
                    # zero-init up so the delta starts at exactly zero
                    self.lora[pre + name + ".up"] = param(np.zeros((lora_rank, d)))
            p[pre + "ln2.g"] = init_ones(d)
            p[pre + "ln2.b"] = init_bias(d)
            p[pre + "ffn1.w"] = init_weight(rng, d, f)
            p[pre + "ffn1.b"] = init_bias(f)
            p[pre + "ffn2.w"] = init_weight(rng, f, d)
            p[pre + "ffn2.b"] = init_bias(d)
        p["ln_f.g"] = init_ones(d)
        p["ln_f.b"] = init_bias(d)
        p["out.w"] = init_weight(rng, d, config.vocab_size)
        p["out.b"] = init_bias(config.vocab_size)

    def lora_parameters(self) -> dict[str, Tensor]:
        return self.lora

    def _proj(self, x: Tensor, name: str) -> Tensor:
        """The projection `name` of x, plus its adapter's delta if it has one."""
        w, b = self.params[name], self.params[name + ".b"]
        if not self.lora:
            return ops.linear(x, w, b)
        return ops.lora_linear(x, w, b, self.lora[name + ".down"],
                               self.lora[name + ".up"], self.lora_scale)

    def _block(self, i: int, x: Tensor, mask: np.ndarray,
               att_keep: np.ndarray | None, ffn_keep: np.ndarray | None) -> Tensor:
        p = self.params
        pre = f"block{i}."
        h = ops.layer_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q, k, v = (self._proj(h, pre + name) for name in ("wq", "wk", "wv"))
        att = ops.attention(q, k, v, self.config.num_heads, mask, att_keep,
                            self.config.dropout)
        x = x + self._proj(att, pre + "wo")
        h = ops.layer_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
        h = ops.swish(ops.linear(h, p[pre + "ffn1.w"], p[pre + "ffn1.b"]))
        if ffn_keep is not None:
            h = ops.dropout(h, ffn_keep, self.config.dropout)
        x = x + ops.linear(h, p[pre + "ffn2.w"], p[pre + "ffn2.b"])
        return x

    def _logits(self, x: Tensor, lengths: list[int],
                rng: np.random.Generator | None = None) -> Tensor:
        """Per-position logits (B, S, vocab) of the embedded right-padded rows
        x (B, S, d) whose items have `lengths` positions: layers, final norm,
        output projection. The causal mask is the only mask: a valid query
        never sees the padded keys after it. Dropout runs only with an rng."""
        cfg = self.config
        keeps = dropout_keeps(rng, cfg.dropout, cfg.num_layers, cfg.num_heads,
                              cfg.ffn_dim, lengths)
        mask = causal_mask(x.shape[1], dtype=x.data.dtype)
        for i, (att_keep, ffn_keep) in enumerate(keeps):
            x = self._block(i, x, mask, att_keep, ffn_keep)
        x = ops.layer_norm(x, self.params["ln_f.g"], self.params["ln_f.b"])
        return ops.linear(x, self.params["out.w"], self.params["out.b"])

    def _embed(self, audio_list: list[Tensor],
               ids_list: list) -> tuple[Tensor, list[int]]:
        """Rows [audio_i || ids_i] right-padded with zeros to (B, S, d), S the
        longest, with positions 0.. added; and each row's length."""
        cfg = self.config
        tok = self.params["tok"]
        lengths = [a.shape[0] + len(ids) for a, ids in zip(audio_list, ids_list)]
        S = max(lengths)
        parts = []
        for audio, ids, n in zip(audio_list, ids_list, lengths):
            m = n - len(ids)
            if n > cfg.max_positions:
                raise AudioError(f"sequence overflow: audio={m} + text={len(ids)}"
                                 f" exceeds max_positions={cfg.max_positions}")
            parts += [audio, ops.embedding(tok, np.asarray(ids))]
            if n < S:
                parts.append(Tensor(np.zeros((S - n, cfg.d_llm), tok.data.dtype)))
        x = ops.concat(parts, axis=0).reshape(len(lengths), S, cfg.d_llm)
        return x + ops.narrow(self.params["pos"], 0, 0, S), lengths

    def forward_mixed(self, audio_embeds: Tensor, text_ids,
                      rng: np.random.Generator | None = None) -> Tensor:
        """Per-position logits for [audio || text] under a causal mask."""
        x, lengths = self._embed([audio_embeds], [text_ids])
        logits = self._logits(x, lengths, rng=rng)
        return logits.reshape(*logits.shape[1:])

    def loss_mixed(self, audio_embeds: Tensor, text_tokens,
                   rng: np.random.Generator | None = None,
                   input_tokens=None) -> Tensor:
        """Mean next-token NLL over text positions.

        text_tokens are the target transcript ids (no specials). Inputs are
        bos-prefixed; targets are the transcript plus eos. input_tokens, when
        given, replaces the transcript on the input side only (token masking).
        """
        cfg = self.config
        inputs = [cfg.bos_id] + list(input_tokens if input_tokens is not None
                                     else text_tokens)
        targets = list(text_tokens) + [cfg.eos_id]
        logits = self.forward_mixed(audio_embeds, inputs, rng=rng)
        logp = ops.log_softmax(ops.narrow(logits, 0, audio_embeds.shape[0], len(targets)))
        picked = ops.gather_rows(logp, np.asarray(targets))
        return -picked.mean()

    def greedy_decode(self, audio_embeds: Tensor,
                      max_len: int = MAX_DECODE_TOKENS) -> list[int]:
        """Deterministic argmax decoding on plain arrays, off the tape, over
        decode-ready weights built once per call from `merged_params()`: each
        layer norm's gain and bias are folded into the projection after it
        (ln1 into the fused q|k|v, whose q columns also carry 1/sqrt(dh); ln2
        into ffn1; ln_f into out). The [audio || bos] prefill runs as rows
        under a causal mask, then each token as one (d,) row. Stops at max_len
        tokens, at eos, or when the position table is full."""
        cfg = self.config
        h, d, P = cfg.num_heads, cfg.d_llm, cfg.max_positions
        dh = d // h
        with no_grad():
            x = self._embed([audio_embeds], [[cfg.bos_id]])[0].data[0]
        w = {name: t.data for name, t in self.merged_params().items()}
        layers = []
        for pre in (f"block{i}." for i in range(cfg.num_layers)):
            qkv = (np.concatenate([w[pre + "wq" + s] / math.sqrt(dh), w[pre + "wk" + s],
                                   w[pre + "wv" + s]], axis=-1) for s in ("", ".b"))
            # the cache: keys transposed (h, dh, P), so scores are one matmul
            layers.append((np.empty((h, dh, P), x.dtype), np.empty((h, P, dh), x.dtype),
                           *_fold(w, pre + "ln1", *qkv), w[pre + "wo"], w[pre + "wo.b"],
                           *_fold(w, pre + "ln2", w[pre + "ffn1.w"], w[pre + "ffn1.b"]),
                           w[pre + "ffn2.w"], w[pre + "ffn2.b"]))
        out_w, out_b = _fold(w, "ln_f", w["out.w"], w["out.b"])
        end, mask, out = len(x), causal_mask(len(x), dtype=x.dtype), []
        for kt, vs, qkv, qkv_b, wo, wo_b, f1, f1_b, f2, f2_b in layers:
            q, k, v = np.moveaxis((_standardise(x) @ qkv + qkv_b).reshape(end, 3, h, dh), 0, 2)
            kt[:, :, :end] = k.transpose(0, 2, 1)
            vs[:, :end] = v
            att = ops.softmax_in_place(q @ kt[:, :, :end] + mask) @ vs[:, :end]
            x = x + (att.transpose(1, 0, 2).reshape(end, d) @ wo + wo_b)
            a = _standardise(x) @ f1 + f1_b
            x = x + ((a / (1 + np.exp(-a))) @ f2 + f2_b)
        x = x[-1]
        while True:
            next_id = int((_standardise(x) @ out_w + out_b).argmax())
            if len(out) >= max_len or next_id == cfg.eos_id:
                return out
            out.append(next_id)
            if end >= P - 1:
                return out
            x = w["tok"][next_id] + w["pos"][end]
            end += 1
            for kt, vs, qkv, qkv_b, wo, wo_b, f1, f1_b, f2, f2_b in layers:
                q, k, v = (_standardise(x) @ qkv + qkv_b).reshape(3, h, dh)
                kt[:, :, end - 1] = k
                vs[:, end - 1] = v
                att = ops.softmax_in_place(q[:, None] @ kt[:, :, :end]) @ vs[:, :end]
                x = x + (att.reshape(d) @ wo + wo_b)
                a = _standardise(x) @ f1 + f1_b
                x = x + ((a / (1 + np.exp(-a))) @ f2 + f2_b)

    def merged_params(self) -> dict[str, Tensor]:
        """Base weights with every adapter folded in; adapter-free forward.
        A weight without an adapter is the base array itself, not a copy."""
        out = {}
        for name, w in self.params.items():
            down, up = self.lora.get(name + ".down"), self.lora.get(name + ".up")
            out[name] = Tensor(w.data if down is None else w.data + (
                self.lora_scale * (down.data @ up.data)).astype(w.data.dtype))
        return out


def _fold(w: dict, norm: str, weight: np.ndarray, bias: np.ndarray) -> tuple:
    """The weight and bias that map standardised rows straight to the layer
    norm `norm` followed by (weight, bias)."""
    return w[norm + ".g"][:, None] * weight, w[norm + ".b"] @ weight + bias


def _standardise(x: np.ndarray) -> np.ndarray:
    """Layer norm without gain and bias: of rows (m, d) by the tape's
    arithmetic, of one row (d,) with its two statistics as Python floats."""
    if x.ndim == 2:
        return ops.standardise(x)[0]
    xc = x - float(np.add.reduce(x)) / len(x)
    return xc * (1.0 / math.sqrt(float(xc @ xc) / len(x) + ops.LN_EPS))

"""Decoder-only transformer LM over mixed audio/text sequences.

Audio embeddings act as an in-context prefix: they occupy positions 0..M-1,
the bos-prefixed transcript follows at M.., and next-token loss is taken on
text positions only. The base weights stay frozen during joint training;
LoRA adapters on the attention q/k/v/output projections carry the update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LmSection
from .frontend import AudioError
from .layers import (attention, causal_mask, dropout_keeps, init_bias,
                     init_embedding, init_ones, init_weight)
from .numcore import Tensor, no_grad, ops, param
from .numcore.rng import generator
from .tokenizer import BOS, EOS

MAX_DECODE_TOKENS = 200

LORA_TARGETS = ("wq", "wk", "wv", "wo")


@dataclass(kw_only=True)
class LmConfig(LmSection):
    """The config section plus what the tokenizer decides."""
    vocab_size: int
    bos_id: int = BOS
    eos_id: int = EOS


class DecoderLM:
    """The LM base lives in `params`. The LoRA adapters live in `lora`, keyed
    `block{i}.{wq,wk,wv,wo}.down` (d, rank) and `.up` (rank, d); the map is
    empty at rank 0. Each adapted projection adds lora_scale * x @ down @ up."""

    def __init__(self, config: LmConfig, seed: int = 0,
                 lora_rank: int = 0, lora_alpha: float = 16.0):
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

    def _block(self, i: int, x: Tensor, mask: np.ndarray | None,
               cache: list | None = None, att_keep: np.ndarray | None = None,
               ffn_keep: np.ndarray | None = None) -> Tensor:
        p = self.params
        pre = f"block{i}."
        h = ops.layer_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q, k, v = (self._proj(h, pre + name) for name in ("wq", "wk", "wv"))
        if cache is not None:
            kbuf, vbuf, n = cache[i]
            end = n + k.shape[0]
            kbuf[n:end], vbuf[n:end] = k.data, v.data
            cache[i] = (kbuf, vbuf, end)
            k, v = Tensor(kbuf[:end]), Tensor(vbuf[:end])
        att = attention(q, k, v, self.config.num_heads, mask=mask, keep=att_keep)
        x = x + self._proj(att, pre + "wo")
        h = ops.layer_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
        h = ops.swish(ops.linear(h, p[pre + "ffn1.w"], p[pre + "ffn1.b"]))
        if ffn_keep is not None:
            h = ops.mul_const(h, ffn_keep)
        x = x + ops.linear(h, p[pre + "ffn2.w"], p[pre + "ffn2.b"])
        return x

    def _logits(self, x: Tensor, mask: np.ndarray | None, cache: list | None = None,
                rng: np.random.Generator | None = None) -> Tensor:
        """Per-position logits of the embedded sequence x (layers, final norm,
        output projection). With a cache, x extends the cached keys/values.
        Dropout runs only with an rng."""
        cfg = self.config
        keeps = dropout_keeps(rng, cfg.dropout, cfg.num_layers, cfg.num_heads,
                              cfg.ffn_dim, x.shape[0], x.data.dtype)
        for i, (att_keep, ffn_keep) in enumerate(keeps):
            x = self._block(i, x, mask, cache, att_keep, ffn_keep)
        x = ops.layer_norm(x, self.params["ln_f.g"], self.params["ln_f.b"])
        return ops.linear(x, self.params["out.w"], self.params["out.b"])

    def _embed(self, audio_embeds: Tensor | None, text_ids,
               pos_offset: int = 0) -> Tensor:
        parts = []
        if audio_embeds is not None and audio_embeds.shape[0] > 0:
            parts.append(audio_embeds)
        if len(text_ids) > 0:
            parts.append(ops.embedding(self.params["tok"], np.asarray(text_ids)))
        if not parts:
            raise ValueError("empty mixed sequence")
        x = parts[0] if len(parts) == 1 else ops.concat(parts, axis=0)
        S = x.shape[0]
        if pos_offset + S > self.config.max_positions:
            raise AudioError(
                f"sequence overflow: audio={0 if audio_embeds is None else audio_embeds.shape[0]}"
                f" + text={len(text_ids)} exceeds max_positions={self.config.max_positions}")
        return x + ops.narrow(self.params["pos"], 0, pos_offset, S)

    def forward_mixed(self, audio_embeds: Tensor | None, text_ids,
                      rng: np.random.Generator | None = None) -> Tensor:
        """Per-position logits for [audio || text] under a causal mask."""
        x = self._embed(audio_embeds, text_ids)
        return self._logits(x, causal_mask(x.shape[0], dtype=x.data.dtype), rng=rng)

    def loss_mixed(self, audio_embeds: Tensor | None, text_tokens,
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
        M = 0 if audio_embeds is None else audio_embeds.shape[0]
        logits = self.forward_mixed(audio_embeds, inputs, rng=rng)
        text_logits = ops.narrow(logits, 0, M, len(targets))
        logp = ops.log_softmax(text_logits)
        picked = ops.gather_rows(logp, np.asarray(targets))
        return -picked.mean()

    def greedy_decode(self, audio_embeds: Tensor | None,
                      max_len: int = MAX_DECODE_TOKENS) -> list[int]:
        """Deterministic argmax decoding with an incremental KV cache: the
        first step runs [audio || bos] under a causal mask, each later step
        runs the last token alone. Each layer's cache is one K and one V
        buffer over the whole position table plus its filled length; a step
        writes its rows in place. Stops at max_len tokens, at eos, or when
        the position table is full."""
        cfg = self.config
        with no_grad():
            x = self._embed(audio_embeds, [cfg.bos_id])
            shape, dtype = (cfg.max_positions, cfg.d_llm), x.data.dtype
            cache = [(np.empty(shape, dtype), np.empty(shape, dtype), 0)
                     for _ in range(cfg.num_layers)]
            pos = x.shape[0]
            mask = causal_mask(pos, dtype=x.data.dtype)
            out: list[int] = []
            while True:
                next_id = int(self._logits(x, mask, cache).data[-1].argmax())
                if len(out) >= max_len or next_id == cfg.eos_id:
                    return out
                out.append(next_id)
                if pos >= cfg.max_positions - 1:
                    return out
                x, mask = self._embed(None, [next_id], pos_offset=pos), None
                pos += 1

    def merged_params(self) -> dict[str, Tensor]:
        """Base weights with every adapter folded in; adapter-free forward."""
        out = {}
        for name, w in self.params.items():
            down, up = self.lora.get(name + ".down"), self.lora.get(name + ".up")
            out[name] = Tensor(w.data.copy() if down is None else w.data + (
                self.lora_scale * (down.data @ up.data)).astype(w.data.dtype))
        return out

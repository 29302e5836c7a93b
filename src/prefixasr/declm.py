"""Decoder-only transformer LM over mixed audio/text sequences.

Audio embeddings act as an in-context prefix: they occupy positions 0..M-1,
the bos-prefixed transcript follows at M.., and next-token loss is taken on
text positions only. The base weights stay frozen during joint training;
LoRA adapters on the attention q/k/v/output projections carry the update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_DECODE_TOKENS, LmSection
from .frontend import AudioError
from .layers import (attention, causal_mask, dropout_keeps, init_bias,
                     init_embedding, init_ones, init_weight)
from .numcore import Tensor, no_grad, ops, param
from .numcore.rng import generator
from .tokenizer import BOS, EOS

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
               att_keep: np.ndarray | None = None,
               ffn_keep: np.ndarray | None = None) -> Tensor:
        p = self.params
        pre = f"block{i}."
        h = ops.layer_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q, k, v = (self._proj(h, pre + name) for name in ("wq", "wk", "wv"))
        att = attention(q, k, v, self.config.num_heads, mask=mask, keep=att_keep)
        x = x + self._proj(att, pre + "wo")
        h = ops.layer_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
        h = ops.swish(ops.linear(h, p[pre + "ffn1.w"], p[pre + "ffn1.b"]))
        if ffn_keep is not None:
            h = ops.mul_const(h, ffn_keep)
        x = x + ops.linear(h, p[pre + "ffn2.w"], p[pre + "ffn2.b"])
        return x

    def _logits(self, x: Tensor, lengths: list[int], mask: np.ndarray,
                rng: np.random.Generator | None = None) -> Tensor:
        """Per-position logits (B, S, vocab) of the embedded right-padded rows
        x (B, S, d) whose items have `lengths` positions: layers, final norm,
        output projection. The causal mask is the only mask: a valid query
        never sees the padded keys after it. Dropout runs only with an rng."""
        cfg = self.config
        keeps = dropout_keeps(rng, cfg.dropout, cfg.num_layers, cfg.num_heads,
                              cfg.ffn_dim, lengths, x.data.dtype)
        for i, (att_keep, ffn_keep) in enumerate(keeps):
            x = self._block(i, x, mask, att_keep, ffn_keep)
        x = ops.layer_norm(x, self.params["ln_f.g"], self.params["ln_f.b"])
        return ops.linear(x, self.params["out.w"], self.params["out.b"])

    def _embed(self, audio_list: list[Tensor | None],
               ids_list: list) -> tuple[Tensor, list[int]]:
        """Rows [audio_i || ids_i] right-padded with zeros to (B, S, d), S the
        longest, with positions 0.. added; and each row's length."""
        cfg = self.config
        tok = self.params["tok"]
        lengths = [(0 if a is None else a.shape[0]) + len(ids)
                   for a, ids in zip(audio_list, ids_list)]
        S = max(lengths)
        parts = []
        for audio, ids, n in zip(audio_list, ids_list, lengths):
            m = n - len(ids)
            if n == 0:
                raise ValueError("empty mixed sequence")
            if n > cfg.max_positions:
                raise AudioError(f"sequence overflow: audio={m} + text={len(ids)}"
                                 f" exceeds max_positions={cfg.max_positions}")
            if m:
                parts.append(audio)
            if len(ids):
                parts.append(ops.embedding(tok, np.asarray(ids)))
            if n < S:
                parts.append(Tensor(np.zeros((S - n, cfg.d_llm), tok.data.dtype)))
        x = parts[0] if len(parts) == 1 else ops.concat(parts, axis=0)
        x = x.reshape(len(lengths), S, cfg.d_llm)
        return x + ops.narrow(self.params["pos"], 0, 0, S), lengths

    def forward_mixed(self, audio_embeds: Tensor | None, text_ids,
                      rng: np.random.Generator | None = None) -> Tensor:
        """Per-position logits for [audio || text] under a causal mask."""
        x, lengths = self._embed([audio_embeds], [text_ids])
        logits = self._logits(x, lengths, causal_mask(x.shape[1], dtype=x.data.dtype), rng=rng)
        return logits.reshape(*logits.shape[1:])

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
        logp = ops.log_softmax(ops.narrow(logits, 0, M, len(targets)))
        picked = ops.gather_rows(logp, np.asarray(targets))
        return -picked.mean()

    def greedy_decode(self, audio_embeds: Tensor | None,
                      max_len: int = MAX_DECODE_TOKENS) -> list[int]:
        """Deterministic argmax decoding on plain arrays, off the tape. One
        step serves the [audio || bos] prefill under a causal mask, then each
        token alone; per layer it runs one fused q|k|v projection into a
        head-major cache (L, 2, h, max_positions, dh), adapters folded in.
        Stops at max_len tokens, at eos, or when the position table is full."""
        cfg = self.config
        h, d = cfg.num_heads, cfg.d_llm
        with no_grad():
            x = self._embed([audio_embeds], [[cfg.bos_id]])[0].data[0]
        w = {name: t.data for name, t in self.merged_params().items()}
        blocks = [{n.removeprefix(pre): a for n, a in w.items() if n.startswith(pre)}
                  for pre in (f"block{i}." for i in range(cfg.num_layers))]
        for b in blocks:
            b["qkv"] = np.concatenate([b["wq"], b["wk"], b["wv"]], axis=1)
            b["qkv.b"] = np.concatenate([b["wq.b"], b["wk.b"], b["wv.b"]])
        cache = np.empty((cfg.num_layers, 2, h, cfg.max_positions, d // h), x.dtype)
        n, mask, out = 0, causal_mask(len(x), dtype=x.dtype), []
        while True:
            m, end = len(x), n + len(x)
            for kv, b in zip(cache, blocks):
                hn = ops.layer_norm_array(x, b["ln1.g"], b["ln1.b"])[0]
                qkv = (hn @ b["qkv"] + b["qkv.b"]).reshape(m, 3, h, -1).transpose(1, 2, 0, 3)
                kv[:, :, n:end] = qkv[1:]
                att = ops.attention_weights(qkv[0], kv[0, :, :end], mask)[0] @ kv[1, :, :end]
                x = x + (att.transpose(1, 0, 2).reshape(m, d) @ b["wo"] + b["wo.b"])
                hn = ops.layer_norm_array(x, b["ln2.g"], b["ln2.b"])[0]
                f = ops.swish_array(hn @ b["ffn1.w"] + b["ffn1.b"])[0]
                x = x + (f @ b["ffn2.w"] + b["ffn2.b"])
            hn = ops.layer_norm_array(x[-1], w["ln_f.g"], w["ln_f.b"])[0]
            next_id = int((hn @ w["out.w"] + w["out.b"]).argmax())
            if len(out) >= max_len or next_id == cfg.eos_id:
                return out
            out.append(next_id)
            if end >= cfg.max_positions - 1:
                return out
            x = w["tok"][[next_id]] + w["pos"][end:end + 1]
            n, mask = end, None

    def merged_params(self) -> dict[str, Tensor]:
        """Base weights with every adapter folded in; adapter-free forward.
        A weight without an adapter is the base array itself, not a copy."""
        out = {}
        for name, w in self.params.items():
            down, up = self.lora.get(name + ".down"), self.lora.get(name + ".up")
            out[name] = Tensor(w.data if down is None else w.data + (
                self.lora_scale * (down.data @ up.data)).astype(w.data.dtype))
        return out

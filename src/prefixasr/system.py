"""Assembled encoder + bridge + LM system and its checkpoint mapping."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import ctc
from .bridge import Bridge, StackConfig
from .checkpoint import CheckpointError, ModelCheckpoint, check_tensors
from .config import ConfigError, RunConfig, from_dict
from .declm import DecoderLM, LmConfig
from .encoder import ConformerEncoder, EncoderConfig
from .frontend import NUM_MELS, FeatureMatrix, FeatureNormalizer
from .layers import dropout_keeps
from .numcore import Tensor, no_grad, ops
from .tokenizer import CharTokenizer, mask_tokens

_STATS = ("frontend.mel_mean", "frontend.mel_std")
ENCODER_TENSORS = ("encoder.", "frontend.")  # what an encoder checkpoint carries over


class AsrSystem:
    """Conformer encoder -> frame stacking bridge -> decoder-only LM."""

    def __init__(self, cfg: RunConfig, tokenizer: CharTokenizer,
                 normalizer: FeatureNormalizer | None = None, seed: int = 0):
        self.cfg = cfg
        self.tokenizer = tokenizer
        self.normalizer = normalizer
        try:  # numpy refuses a size it cannot allocate or index
            self.encoder = ConformerEncoder(EncoderConfig(
                **asdict(cfg.encoder), ctc_vocab=tokenizer.ctc_vocab_size), seed=seed)
            self.bridge = Bridge(StackConfig(
                n=cfg.bridge.stack_n, d_encoder=cfg.encoder.d_model,
                d_llm=cfg.lm.d_llm), seed=seed)
            self.lm = DecoderLM(LmConfig(**asdict(cfg.lm), vocab_size=tokenizer.vocab_size),
                                seed=seed, lora_rank=cfg.lora.rank, lora_alpha=cfg.lora.alpha)
        except (MemoryError, ValueError) as exc:
            raise ConfigError(f"cannot build the model: {exc}") from exc

    # -- parameter groups -------------------------------------------------

    def named_params(self) -> dict[str, Tensor]:
        """Every model tensor by checkpoint name: encoder.*, bridge.*, lm.*
        (the frozen LM base) and lora.* (the adapters)."""
        out = {}
        for prefix, params in (("encoder.", self.encoder.params),
                               ("bridge.", self.bridge.params),
                               ("lm.", self.lm.params),
                               ("lora.", self.lm.lora_parameters())):
            out.update({prefix + k: v for k, v in params.items()})
        return out

    def joint_trainable(self) -> dict[str, Tensor]:
        """Encoder without its CTC head, bridge and LoRA adapters."""
        return {k: v for k, v in self.named_params().items()
                if not k.startswith(("encoder.ctc.", "lm."))}

    def all_tensors(self) -> dict[str, np.ndarray]:
        out = {k: v.data for k, v in self.named_params().items()}
        if self.normalizer is not None:
            out.update(zip(_STATS, (self.normalizer.mean, self.normalizer.std)))
        return out

    # -- forward ----------------------------------------------------------

    def embed_audio(self, features: FeatureMatrix, keeps=None) -> Tensor:
        """The (M, d_llm) audio prefix, with the encoder dropout masks keeps."""
        emb = self.encoder.forward([features], keeps)
        return self.bridge.forward(emb.reshape(*emb.shape[1:]))

    def ctc_losses(self, features: list[FeatureMatrix], texts: list[str],
                   rng=None) -> Tensor:
        """Stage-1 loss: the (B,) CTC losses of one padded batch, +inf where
        an utterance has no alignment."""
        enc = self.encoder
        lengths = enc.output_lengths([f.frames.shape[0] for f in features])
        emb = enc.forward(features, dropout_keeps(rng, enc.config, lengths))
        return ctc.ctc_losses(ops.log_softmax(enc.ctc_logits(emb)), lengths,
                              [self.tokenizer.encode_ctc(t) for t in texts])

    def joint_losses(self, features: list[FeatureMatrix], texts: list[str],
                     rng=None) -> Tensor:
        """Stage-2 loss: the (B,) next-token losses, one graph per utterance."""
        return ops.concat([self.joint_loss(f, text, rng).reshape(1)
                           for f, text in zip(features, texts)])

    def joint_loss(self, features: FeatureMatrix, text: str, rng=None) -> Tensor:
        """One utterance's next-token loss. With an rng (training) it draws in
        turn its token mask, its encoder dropout masks and its LM dropout
        masks."""
        ids = self.tokenizer.encode(text)
        inputs = ids if rng is None else mask_tokens(ids, self.cfg.training.mask_fraction, rng)
        enc = self.encoder
        enc_keeps = dropout_keeps(rng, enc.config, enc.output_lengths([len(features.frames)]))
        audio = self.embed_audio(features, enc_keeps)
        lm_keeps = dropout_keeps(rng, self.lm.config, [audio.shape[0] + len(ids) + 1])
        return self.lm.loss_mixed(audio, ids, lm_keeps, input_tokens=inputs)

    def transcribe(self, features: FeatureMatrix,
                   max_len: int | None = None) -> str:
        with no_grad():
            audio = self.embed_audio(features)
            if max_len is None:
                max_len = self.cfg.eval.max_decode_tokens
            ids = self.lm.greedy_decode(audio, max_len=max_len)
        return self.tokenizer.decode(ids)

    # -- checkpoint interop ------------------------------------------------

    def to_checkpoint(self, metadata: dict | None = None,
                      tensors: dict[str, np.ndarray] | None = None) -> ModelCheckpoint:
        """This system's config and tokenizer with `tensors` (by default
        all_tensors()) and any extra metadata."""
        meta = {"tokenizer": self.tokenizer.to_dict(), **(metadata or {})}
        config = self.cfg.to_dict()
        if self.cfg.lm.num_layers and not self.lm.lora:  # its adapters were folded
            config["lora"]["rank"] = 0
        return ModelCheckpoint(config=config, metadata=meta,
                               tensors=self.all_tensors() if tensors is None else tensors)

    def load_tensors(self, tensors: dict[str, np.ndarray],
                     prefixes: tuple[str, ...] = ("",)) -> None:
        """Load the system tensors whose names start with one of `prefixes`.
        Under those prefixes `tensors` must hold exactly named_params(), plus
        finite (80,) feature statistics with std > 0; they become the
        normalizer."""
        params = self.named_params()
        expected = {k: v.shape for k, v in params.items()}
        expected.update(dict.fromkeys(_STATS, (NUM_MELS,)))
        expected = {k: v for k, v in expected.items() if k.startswith(prefixes)}
        check_tensors(expected, {k: v for k, v in tensors.items() if k.startswith(prefixes)},
                      "checkpoint")
        for name, p in params.items():
            if name in expected:
                p.data = tensors[name].astype(p.data.dtype)
        if _STATS[0] in expected:
            mean, std = (tensors[k].astype(np.float32) for k in _STATS)
            if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
                raise CheckpointError("feature statistics need a finite mean "
                                      "and a finite std > 0")
            self.normalizer = FeatureNormalizer(mean=mean, std=std)

    @classmethod
    def from_encoder_checkpoint(cls, cfg: RunConfig, ckpt: ModelCheckpoint,
                                seed: int = 0) -> "AsrSystem":
        """Start joint training from an encoder-pretraining checkpoint.

        Only encoder weights and feature statistics carry over; bridge, LM
        and adapters are freshly initialized from `seed`."""
        try:
            tokenizer = CharTokenizer.from_dict(ckpt.metadata["tokenizer"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"bad tokenizer: {exc!r}") from exc
        system = cls(cfg, tokenizer, seed=seed)
        system.load_tensors(ckpt.tensors, ENCODER_TENSORS)
        return system

    @classmethod
    def from_checkpoint(cls, ckpt: ModelCheckpoint) -> "AsrSystem":
        """Load a trained system for inference. The LoRA adapters are folded
        into the LM base once, here, and the LM keeps no adapters; cfg stays
        the config the checkpoint was trained under, and to_checkpoint() is
        the merged, lora.rank 0 checkpoint."""
        try:
            system = cls.from_encoder_checkpoint(from_dict(ckpt.config), ckpt)
        except ConfigError as exc:
            raise CheckpointError(f"invalid checkpoint config: {exc}") from exc
        system.load_tensors(ckpt.tensors)
        lm = system.lm
        for name, t in lm.merged_params().items():
            lm.params[name].data = t.data
        lm.lora = {}
        return system

"""Declarative run configuration: YAML file + dotted --set overrides.

Unknown keys, values of the wrong type and values out of range are rejected
at load time, so an ablation config can never silently drift from the
architecture it describes. The canonical dict form feeds the checkpoint
config digest.
"""

from __future__ import annotations

import dataclasses
import math
import re
import typing
from dataclasses import dataclass, field
from pathlib import Path

import yaml


class ConfigError(ValueError):
    pass


LM_PRESETS = {  # lm.preset=NAME loads as the widths of NAME; explicit lm keys win
    "tiny": dict(d_llm=128, num_layers=2, num_heads=4, ffn_dim=256, max_positions=512),
    "small": dict(d_llm=192, num_layers=4, num_heads=4, ffn_dim=384, max_positions=512),
    "base": dict(d_llm=256, num_layers=6, num_heads=8, ffn_dim=512, max_positions=768),
}
MAX_DECODE_TOKENS = 200  # the default cap on greedy-decoded tokens
MAX_BATCH_SECONDS = 600.0  # 20x the default; 600 s already pads hundreds of utterances


def _check_min(section, low: int, *names: str) -> None:
    for name in names:
        if getattr(section, name) < low:
            raise ConfigError(f"{name} must be >= {low}")


def _check_fraction(section, *names: str) -> None:
    for name in names:
        if not 0.0 <= getattr(section, name) < 1.0:
            raise ConfigError(f"{name} must lie in [0, 1)")


@dataclass
class EncoderSection:
    num_layers: int = 2
    d_model: int = 64
    ffn_dim: int = 128
    conv_kernel: int = 11
    num_heads: int = 4
    subsample_stride: int = 8
    subsample_channels: int = 64
    max_frames: int = 256        # post-subsampling positions
    dropout: float = 0.1

    def __post_init__(self):
        _check_min(self, 1, "d_model", "ffn_dim", "conv_kernel", "subsample_channels",
                   "max_frames")
        _check_min(self, 0, "num_layers")
        _check_fraction(self, "dropout")
        if self.num_heads < 1 or self.d_model % self.num_heads != 0:
            raise ConfigError("num_heads must be positive and divide d_model")
        if self.conv_kernel % 2 != 1:
            raise ConfigError("conv_kernel must be odd")
        if self.subsample_stride < 1 or self.subsample_stride & (self.subsample_stride - 1):
            raise ConfigError("subsample_stride must be a power of 2")


@dataclass
class BridgeSection:
    stack_n: int = 3

    def __post_init__(self):
        _check_min(self, 1, "stack_n")


@dataclass
class LmSection:
    d_llm: int = LM_PRESETS["tiny"]["d_llm"]
    num_layers: int = LM_PRESETS["tiny"]["num_layers"]
    num_heads: int = LM_PRESETS["tiny"]["num_heads"]
    ffn_dim: int = LM_PRESETS["tiny"]["ffn_dim"]
    max_positions: int = LM_PRESETS["tiny"]["max_positions"]
    dropout: float = 0.1

    def __post_init__(self):
        _check_min(self, 1, "d_llm", "ffn_dim", "max_positions")
        _check_min(self, 0, "num_layers")
        _check_fraction(self, "dropout")
        if self.num_heads < 1 or self.d_llm % self.num_heads != 0:
            raise ConfigError("num_heads must be positive and divide d_llm")


@dataclass
class LoraSection:
    rank: int = 8
    alpha: float = 16.0

    def __post_init__(self):
        _check_min(self, 0, "rank")


@dataclass
class StageSection:
    peak_lr: float = 1e-3
    final_lr: float = 1e-5
    warmup_steps: int = 200
    total_steps: int = 10000
    max_steps: int = 2000

    def __post_init__(self):
        _check_min(self, 0, "warmup_steps", "max_steps")
        if not self.warmup_steps < self.total_steps:
            raise ConfigError("warmup_steps must be below total_steps")
        if not self.peak_lr >= self.final_lr > 0:
            raise ConfigError("need peak_lr >= final_lr > 0")


@dataclass
class TrainingSection:
    seed: int = 0
    batch_seconds: float = 30.0
    mask_fraction: float = 0.0
    sampling_alpha: float = 0.5
    valid_fraction: float = 0.05
    eval_interval: int = 100
    early_stop_evals: int = 10
    grad_clip: float = 1.0
    pretrain: StageSection = field(default_factory=StageSection)
    joint: StageSection = field(default_factory=lambda: StageSection(
        peak_lr=5e-4, final_lr=5e-6, warmup_steps=500, total_steps=20000,
        max_steps=5000))

    def __post_init__(self):
        if not 0.0 <= self.mask_fraction <= 1.0:
            raise ConfigError("mask_fraction must lie in [0, 1]")
        _check_fraction(self, "valid_fraction")
        if not 0 < self.batch_seconds <= MAX_BATCH_SECONDS:
            raise ConfigError(f"batch_seconds must lie in (0, {MAX_BATCH_SECONDS}]")
        _check_min(self, 1, "eval_interval", "early_stop_evals")
        if not self.grad_clip >= 0:
            raise ConfigError("grad_clip must be >= 0 (0 turns clipping off)")


@dataclass
class EvalSection:
    max_decode_tokens: int = MAX_DECODE_TOKENS

    def __post_init__(self):
        _check_min(self, 0, "max_decode_tokens")


@dataclass
class RunConfig:
    encoder: EncoderSection = field(default_factory=EncoderSection)
    bridge: BridgeSection = field(default_factory=BridgeSection)
    lm: LmSection = field(default_factory=LmSection)
    lora: LoraSection = field(default_factory=LoraSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def changed_sections(saved: dict, cfg: RunConfig, skip=()) -> list[str]:
    """The top-level sections, outside `skip`, whose values in the config
    dict `saved` differ from `cfg`'s; values compare by ==, so 16 == 16.0."""
    current = cfg.to_dict()
    return sorted(k for k in set(saved) | set(current)
                  if k not in skip and saved.get(k) != current.get(k))


def _check_scalar(value, hint, path: str):
    """A bool is not an int; an int is accepted where a float is expected;
    inf and nan are not numbers here."""
    accepted = (int, float) if hint is float else hint
    if (isinstance(value, bool) != (hint is bool) or not isinstance(value, accepted)
            or (isinstance(value, float) and not math.isfinite(value))):
        raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping")
    hints = typing.get_type_hints(cls)
    if cls is LmSection and "preset" in data:
        preset = data["preset"]
        if not isinstance(preset, str) or preset not in LM_PRESETS:
            raise ConfigError(f"{path}: unknown lm preset {preset!r}")
        data = {**LM_PRESETS[preset], **data}
        del data["preset"]
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        where = f"{path}.{name}" if path else name
        if dataclasses.is_dataclass(hints[name]):
            kwargs[name] = _build(hints[name], value, where)
        else:
            _check_scalar(value, hints[name], where)
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data or {}, "")


class _Loader(yaml.SafeLoader):
    """Safe YAML 1.1 loading that also reads a float without a dot, such as
    1e-3, as YAML 1.2 does."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(\.[0-9_]*)?[eE][-+]?[0-9]+$"), list("-+0123456789"))


def load_config(path=None, overrides=None) -> RunConfig:
    """Read YAML config and apply dotted `key=value` overrides (highest wins)."""
    data = {}
    if path is not None:
        try:
            data = yaml.load(Path(path).read_text(), _Loader) or {}
        except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, value = item.partition("=")
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a scalar")
        try:
            node[parts[-1]] = yaml.load(value, _Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r}: bad YAML value: {exc}") from exc
    return from_dict(data)

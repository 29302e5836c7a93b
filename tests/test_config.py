import dataclasses
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixasr.checkpoint import config_digest
from prefixasr.config import (LM_PRESETS, MAX_BATCH_SECONDS, ConfigError,
                              RunConfig, from_dict, load_config)
from test_acceptance import OVERFIT_OVERRIDES


def test_defaults_construct():
    cfg = RunConfig()
    assert cfg.encoder.num_layers == 2
    assert cfg.encoder.d_model == 64
    assert cfg.bridge.stack_n == 3
    assert cfg.lora.rank == 8 and cfg.lora.alpha == 16.0
    assert cfg.eval.max_decode_tokens == 200


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        from_dict({"encoderr": {}})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        from_dict({"encoder": {"d_modell": 64}})


def test_lm_preset_expansion():
    cfg = from_dict({"lm": {"preset": "base"}})
    for key, value in LM_PRESETS["base"].items():
        assert getattr(cfg.lm, key) == value


def test_default_lm_is_the_tiny_preset():
    assert load_config(overrides=["lm.preset=tiny"]).lm == RunConfig().lm


def test_config_digests_pinned():
    """Checkpoints store these digests; a default that moves breaks them."""
    assert config_digest(RunConfig().to_dict()) == (
        "02aa0ca8f08a857b4571af4892a30669fc5a8cf01feb9ec8e4976c8fbedb8706")
    assert config_digest(load_config(overrides=["lm.preset=base"]).to_dict()) == (
        "c747908c27e85061d1f2a70a31912ac68732c8b24287713cd58f19b22b5ebe27")


def test_preset_loads_as_the_widths_it_names():
    """A saved config holds the widths only, so the two spellings of one
    model are one config."""
    spelled = [f"lm.{k}={v}" for k, v in LM_PRESETS["base"].items()]
    by_preset = load_config(overrides=["lm.preset=base"]).to_dict()
    assert by_preset == load_config(overrides=spelled).to_dict()
    assert "preset" not in by_preset["lm"]


def test_preset_fields_can_be_overridden():
    cfg = from_dict({"lm": {"preset": "base", "num_layers": 3}})
    assert cfg.lm.num_layers == 3
    assert cfg.lm.d_llm == LM_PRESETS["base"]["d_llm"]


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        from_dict({"lm": {"preset": "giant"}})


def test_mask_fraction_bounds():
    with pytest.raises(ConfigError):
        from_dict({"training": {"mask_fraction": 1.5}})


def test_batch_seconds_bounded():
    """A batch of millions of seconds would make sample_batch spin."""
    cfg = from_dict({"training": {"batch_seconds": MAX_BATCH_SECONDS}})
    assert cfg.training.batch_seconds == MAX_BATCH_SECONDS
    with pytest.raises(ConfigError, match="batch_seconds"):
        from_dict({"training": {"batch_seconds": MAX_BATCH_SECONDS + 0.5}})
    with pytest.raises(ConfigError, match="batch_seconds"):
        load_config(overrides=["training.batch_seconds=10000000.0"])


@pytest.mark.parametrize("override", [
    "training.pretrain.max_steps=-1",
    "training.joint.warmup_steps=-5",
    "training.early_stop_evals=0",
    "training.early_stop_evals=-3",
    "training.grad_clip=-1.0",
])
def test_out_of_range_training_values_rejected(override):
    with pytest.raises(ConfigError):
        load_config(overrides=[override])


def test_zero_max_steps_and_grad_clip_load():
    """A stage of 0 steps trains nothing; a grad_clip of 0 turns clipping off."""
    cfg = load_config(overrides=["training.joint.max_steps=0", "training.grad_clip=0.0"])
    assert cfg.training.joint.max_steps == 0 and cfg.training.grad_clip == 0.0


def test_yaml_file_and_overrides(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("encoder:\n  num_layers: 3\ntraining:\n  seed: 7\n")
    cfg = load_config(path, overrides=["training.seed=9", "lora.rank=0"])
    assert cfg.encoder.num_layers == 3
    assert cfg.training.seed == 9  # override beats the file
    assert cfg.lora.rank == 0


def test_shipped_overfit_config_is_criterion_5s():
    """scripts/overfit.yaml, the README's overfit recipe, is the config of
    the acceptance overfit run, so the two cannot drift apart."""
    path = Path(__file__).parents[1] / "scripts" / "overfit.yaml"
    assert load_config(path) == load_config(overrides=OVERFIT_OVERRIDES)


def test_yaml_file_reads_floats_without_a_dot(tmp_path):
    """YAML 1.2's 1e-3 form; YAML 1.1, as PyYAML reads it, makes it a string."""
    path = tmp_path / "run.yaml"
    path.write_text("training: {pretrain: {peak_lr: 1e-3}, joint: {final_lr: 1E-5}}\n")
    cfg = load_config(path)
    assert cfg.training.pretrain.peak_lr == 1e-3
    assert cfg.training.joint.final_lr == 1e-5


def test_override_reads_floats_without_a_dot():
    cfg = load_config(overrides=["training.pretrain.peak_lr=1e-3",
                                 "training.batch_seconds=3e1"])
    assert cfg.training.pretrain.peak_lr == 1e-3
    assert cfg.training.batch_seconds == 30.0
    with pytest.raises(ConfigError, match="expected int, got 1000.0"):
        load_config(overrides=["training.seed=1e3"])
    with pytest.raises(ConfigError, match="expected float, got inf"):
        load_config(overrides=["training.batch_seconds=1e999"])


def test_override_types_parsed_as_yaml():
    cfg = load_config(overrides=["lora.rank=4", "training.batch_seconds=12.5"])
    assert cfg.lora.rank == 4
    assert cfg.training.batch_seconds == 12.5


def test_malformed_override_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        load_config(overrides=["training.seed"])


def test_dict_roundtrip_preserves_digest():
    cfg = load_config(overrides=["encoder.d_model=32", "lm.num_heads=2"])
    clone = from_dict(cfg.to_dict())
    assert config_digest(clone.to_dict()) == config_digest(cfg.to_dict())


def test_digest_changes_with_config():
    a = RunConfig().to_dict()
    b = load_config(overrides=["lora.rank=0"]).to_dict()
    assert config_digest(a) != config_digest(b)


def _schema_keys(cls=RunConfig, prefix=""):
    """Every dotted key of the schema, sections included."""
    keys = []
    for name, hint in typing.get_type_hints(cls).items():
        keys.append(prefix + name)
        if dataclasses.is_dataclass(hint):
            keys += _schema_keys(hint, prefix + name + ".")
    return keys


YAML_SYNTAX = st.text(st.sampled_from(list("[]{}:,&*!|>'\"%@`#-?.= \n\tae01")), max_size=12)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(key=st.sampled_from(_schema_keys()),
       value=st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                       YAML_SYNTAX, st.text(max_size=12)))
def test_any_override_loads_or_raises_config_error(key, value):
    try:
        load_config(overrides=[f"{key}={value}"])
    except ConfigError:
        pass

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fast_config
from prefixasr import checkpoint
from prefixasr.checkpoint import (CheckpointError, ModelCheckpoint,
                                  config_digest, file_digest, load_checkpoint,
                                  save_checkpoint)
from prefixasr.frontend import FeatureNormalizer
from prefixasr.system import AsrSystem
from prefixasr.tokenizer import CharTokenizer


@pytest.fixture
def ckpt():
    rng = np.random.default_rng(0)
    return ModelCheckpoint(
        config={"encoder": {"d_model": 64}, "seed": 3},
        tensors={
            "encoder.w": rng.normal(size=(4, 5)).astype(np.float32),
            "lm.tok": rng.normal(size=(7, 3)).astype(np.float32),
            "stats.mean": rng.normal(size=(80,)),  # float64
        },
        metadata={"stage": "test", "tokenizer": {"chars": ["a", "b"]}})


def test_roundtrip_exact(tmp_path, ckpt):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert loaded.metadata == ckpt.metadata
    assert set(loaded.tensors) == set(ckpt.tensors)
    for name, arr in ckpt.tensors.items():
        assert loaded.tensors[name].dtype == arr.dtype
        np.testing.assert_array_equal(loaded.tensors[name], arr)


def test_save_is_deterministic(tmp_path, ckpt):
    save_checkpoint(tmp_path / "a.ckpt", ckpt)
    save_checkpoint(tmp_path / "b.ckpt", ckpt)
    assert file_digest(tmp_path / "a.ckpt") == file_digest(tmp_path / "b.ckpt")


def test_bad_magic_rejected(tmp_path, ckpt):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_tampered_config_digest_rejected(tmp_path, ckpt):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    data = path.read_bytes()
    # alter the config inside the embedded metadata JSON, keeping its length
    tampered = data.replace(b'"d_model": 64', b'"d_model": 65')
    assert tampered != data
    path.write_bytes(tampered)
    with pytest.raises(CheckpointError, match="digest"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"SL")
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_unreadable_file_rejected(tmp_path):
    """A resume finds a directory where its state file should be."""
    (tmp_path / "state.ckpt").mkdir()
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "state.ckpt")


def test_namespace_filter(ckpt):
    enc = ckpt.namespace("encoder.")
    assert list(enc) == ["w"]
    assert enc["w"].shape == (4, 5)


def test_config_digest_is_key_order_invariant():
    a = {"x": 1, "y": {"a": 2, "b": 3}}
    b = {"y": {"b": 3, "a": 2}, "x": 1}
    assert config_digest(a) == config_digest(b)


def test_scalar_tensor_roundtrip(tmp_path):
    ck = ModelCheckpoint(config={}, tensors={"s": np.float32(3.5).reshape(())})
    save_checkpoint(tmp_path / "s.ckpt", ck)
    out = load_checkpoint(tmp_path / "s.ckpt").tensors["s"]
    assert out.shape == () and out == np.float32(3.5)


def test_failed_save_keeps_previous_file(tmp_path, ckpt, monkeypatch):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, ckpt)
    newer = ModelCheckpoint(config=ckpt.config, metadata=ckpt.metadata,
                            tensors={k: v + 1 for k, v in ckpt.tensors.items()})
    half = path.stat().st_size // 2

    class DiesHalfway(io.FileIO):
        """The disk fills up halfway through the streamed file."""

        def write(self, data):
            data = bytes(data)
            if self.tell() + len(data) > half:
                super().write(data[:half - self.tell()])
                raise OSError("disk full")
            return super().write(data)

    monkeypatch.setattr(checkpoint, "open", DiesHalfway, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, newer)
    monkeypatch.undo()
    loaded = load_checkpoint(path)
    for name, arr in ckpt.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name], arr)
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]


def _cut_mid_tensor(data):
    return data[:-7]


def _bad_json(data):
    return data.replace(b'{"config"', b'["config"', 1)


def _no_config(data):
    return data.replace(b'"config"', b'"konfig"', 1)


def _unknown_dtype(data):
    at = data.index(b"lm.tok") + len(b"lm.tok")
    return data[:at] + b"\x07" + data[at + 1:]


def _trailing_bytes(data):
    return data + b"\x00\x00\x00\x00"


@pytest.mark.parametrize("corrupt", [_cut_mid_tensor, _bad_json, _no_config,
                                     _unknown_dtype, _trailing_bytes],
                         ids=["cut_mid_tensor", "bad_json", "no_config",
                              "unknown_dtype", "trailing_bytes"])
def test_corrupt_file_rejected(tmp_path, ckpt, corrupt):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ckpt)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)



@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    """(bytes of a saved tiny model checkpoint, a scratch path)."""
    cfg = fast_config(["encoder.d_model=8", "encoder.ffn_dim=8", "encoder.subsample_channels=4",
                       "encoder.max_frames=8", "lm.d_llm=8", "lm.ffn_dim=8",
                       "lm.max_positions=8", "lora.rank=1"])
    normalizer = FeatureNormalizer(mean=np.zeros(80, np.float32), std=np.ones(80, np.float32))
    system = AsrSystem(cfg, CharTokenizer.from_texts(["ab c"]), normalizer)
    path = tmp_path_factory.mktemp("small") / "model.ckpt"
    save_checkpoint(path, system.to_checkpoint({"stage": "joint"}))
    return path.read_bytes(), path


def _damage(data: bytes):
    """A truncation, or a single byte flipped anywhere or inside the header
    and metadata (the first 2 KB)."""
    position = st.one_of(st.integers(0, len(data) - 1), st.integers(0, 2047))
    cut = st.builds(lambda n: data[:n], position)
    flip = st.builds(lambda i, x: data[:i] + bytes([data[i] ^ x]) + data[i + 1:],
                     position, st.integers(1, 255))
    return st.one_of(cut, flip)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_damaged_model_checkpoint_loads_or_raises_checkpoint_error(small_model, data):
    """The format has no payload checksum, so a flip inside tensor data may
    still load."""
    original, path = small_model
    path.write_bytes(data.draw(_damage(original)))
    try:
        AsrSystem.from_checkpoint(load_checkpoint(path))
    except CheckpointError:
        pass


def test_streamed_file_matches_pinned_bytes(tmp_path):
    """The file is streamed tensor by tensor; its bytes are pinned to the
    digest of the writer that built the whole file in memory first. Covers
    float32 and float64, a transposed view, big-endian and integer input, a
    0-d and an empty tensor, and non-ASCII config text."""
    rng = np.random.default_rng(0)
    tensors = {
        "encoder.w": rng.standard_normal((5, 7)).astype(np.float32),
        "encoder.w_t": rng.standard_normal((4, 6)).astype(np.float32).T,
        "lm.f64": rng.standard_normal(9),
        "lm.scalar": np.float32(2.5) * np.ones((), np.float32),
        "lm.big_endian": rng.standard_normal(3).astype(">f4"),
        "lora.ints": np.arange(6).reshape(2, 3),
        "frontend.empty": np.zeros((0, 80), np.float32),
    }
    ckpt = ModelCheckpoint(config={"lora": {"rank": 4, "alpha": 16.0}, "name": "ä"},
                           tensors=tensors, metadata={"stage": "joint", "n": [1, 2.5]})
    save_checkpoint(tmp_path / "x.ckpt", ckpt)
    assert (tmp_path / "x.ckpt").stat().st_size == 634
    assert file_digest(tmp_path / "x.ckpt") == (
        "994caa49d3bec989987220f842b42d5e1ea3d2830ee704cf2197b7a9b1743912")
    assert [p.name for p in tmp_path.iterdir()] == ["x.ckpt"]

import struct
import wave

# Importing the CLI before numpy applies its BLAS rule (one thread unless a
# thread variable is set), so in-process tests get the bits and timing of the
# CLI and the bench on a host of any CPU count.
import prefixasr.cli  # noqa: F401
import numpy as np
import pytest

from prefixasr import trainer
from prefixasr.config import load_config
from prefixasr.toydata import write_toy_corpus

# small model + short schedules for fast unit tests
FAST_OVERRIDES = [
    "encoder.num_layers=1",
    "encoder.d_model=32",
    "encoder.ffn_dim=64",
    "encoder.num_heads=2",
    "encoder.subsample_channels=16",
    "encoder.dropout=0.0",
    "lm.d_llm=64",
    "lm.num_layers=1",
    "lm.num_heads=2",
    "lm.ffn_dim=128",
    "lm.dropout=0.0",
    "training.valid_fraction=0.0",
    "training.eval_interval=10",
    "training.mask_fraction=0.1",
    "training.pretrain.max_steps=30",
    "training.pretrain.warmup_steps=5",
    "training.joint.max_steps=30",
    "training.joint.warmup_steps=5",
]


def fast_config(extra=()):
    return load_config(overrides=FAST_OVERRIDES + list(extra))


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory):
    """Rendered tone corpus shared across tests: (manifest path, entries)."""
    manifest = write_toy_corpus(tmp_path_factory.mktemp("corpus"))
    return manifest, trainer.read_manifest(manifest)


def write_patched_rate_wav(path, rate=0):
    """A 0.1 s PCM16 WAV whose fmt chunk then has its sample rate set to `rate`."""
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(np.zeros(1600, dtype="<i2").tobytes())
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 24, rate)  # fmt chunk: nSamplesPerSec
    path.write_bytes(bytes(blob))


def write_truncated_wav(path, channels, cut):
    """A 4000-frame 16 kHz PCM16 WAV with the last `cut` bytes of its data
    chunk cut off; the header still claims all 4000 frames."""
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(np.zeros(4000 * channels, dtype="<i2").tobytes())
    path.write_bytes(path.read_bytes()[:-cut])


def riff_wav(chunks, riff_size=None):
    """RIFF/WAVE bytes from (chunk id, payload) pairs, each size field the
    payload's length. `riff_size` overrides the RIFF size field."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(payload)) + payload
                              + b"\0" * (len(payload) % 2) for cid, payload in chunks)
    size = len(body) if riff_size is None else riff_size
    return b"RIFF" + struct.pack("<I", size) + body


# fmt and data chunks of 0.03 s of 16 kHz mono PCM16 silence
PCM16_FMT = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
PCM16_DATA = np.zeros(480, "<i2").tobytes()


# a 100-byte LIST chunk ahead of fmt with the RIFF size set to 60: the size
# ends inside the LIST chunk, which wave has to skip
LIST_PAST_RIFF_SIZE = riff_wav([(b"LIST", bytes(100)), (b"fmt ", PCM16_FMT),
                                (b"data", PCM16_DATA)], riff_size=60)

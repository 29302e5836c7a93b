"""Synthetic tone-sequence corpus for smoke tests and overfit experiments.

Each character maps to a fixed sine tone, so an utterance is an audible
spelling of its transcript. The mapping is deterministic: same call, same
bytes. Small enough to memorize, which is the point — a correct system must
drive both CTC and joint training error to zero on it.
"""

from __future__ import annotations

import json
import math
import wave
from pathlib import Path

import numpy as np

from .frontend import SAMPLE_RATE

TONE_SECONDS = 0.16
GAP_SECONDS = 0.04
SPACE_SECONDS = 0.12
PAD_SECONDS = 0.08

# (transcript, language) pairs; two languages exercise balanced sampling
TOY_UTTERANCES = [
    ("ab ba", "aa"),
    ("ba ab", "aa"),
    ("abc", "aa"),
    ("cab ba", "aa"),
    ("de ed", "bb"),
    ("ed de", "bb"),
    ("dec", "bb"),
    ("ace bed", "bb"),
]


def char_frequency(ch: str) -> float:
    """Distinct tone per character, spaced well apart in hertz."""
    return 320.0 + 90.0 * (ord(ch) - ord("a"))


def render_tone(freq: float, seconds: float) -> np.ndarray:
    t = np.arange(int(round(seconds * SAMPLE_RATE))) / SAMPLE_RATE
    tone = 0.3 * np.sin(2 * math.pi * freq * t)
    # short fade in/out avoids clicks at tone boundaries
    ramp = min(80, len(tone) // 4)
    if ramp:
        env = np.ones(len(tone))
        env[:ramp] = np.linspace(0, 1, ramp)
        env[-ramp:] = np.linspace(1, 0, ramp)
        tone *= env
    return tone


def render_text(text: str) -> np.ndarray:
    parts = [np.zeros(int(PAD_SECONDS * SAMPLE_RATE))]
    for ch in text:
        if ch == " ":
            parts.append(np.zeros(int(SPACE_SECONDS * SAMPLE_RATE)))
        else:
            parts.append(render_tone(char_frequency(ch), TONE_SECONDS))
            parts.append(np.zeros(int(GAP_SECONDS * SAMPLE_RATE)))
    parts.append(np.zeros(int(PAD_SECONDS * SAMPLE_RATE)))
    return np.concatenate(parts)


def write_wav(path, samples: np.ndarray) -> None:
    pcm = np.clip(samples * 32767.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(pcm.tobytes())


def write_toy_corpus(out_dir, utterances=None) -> Path:
    """Render wavs + JSONL manifest under out_dir; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    utterances = utterances if utterances is not None else TOY_UTTERANCES
    lines = []
    for i, (text, lang) in enumerate(utterances):
        wav_path = out_dir / f"utt{i:02d}.wav"
        write_wav(wav_path, render_text(text))
        lines.append(json.dumps({"audio_path": str(wav_path), "text": text,
                                 "language": lang}))
    manifest = out_dir / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest

"""Audio ingestion and 80-d log-mel filterbank features at a 10 ms hop.

Window 25 ms / hop 10 ms / Hann / 512-point FFT / 80 mel filters over
0-8 kHz; natural log with a 1e-10 floor. Only the feature dimension and the
frame rate are externally constrained, the rest follows common ASR practice.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np
from scipy.signal import resample_poly

SAMPLE_RATE = 16000
WINDOW_SAMPLES = 400   # 25 ms
HOP_SAMPLES = 160      # 10 ms
NUM_FFT = 512
NUM_MELS = 80
MAX_SECONDS = 20.0
LOG_FLOOR = 1e-10


class AudioError(ValueError):
    pass


@dataclass
class Waveform:
    samples: np.ndarray  # float32 in [-1, 1], mono
    sample_rate: int = SAMPLE_RATE

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def load_audio(path) -> Waveform:
    """Read a PCM16 RIFF/WAVE file as mono 16 kHz floats in [-1, 1].

    Stereo is channel-averaged; other rates are resampled. Utterances over
    20 s are rejected.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            nframes = wf.getnframes()
            raw = wf.readframes(nframes)
    except (wave.Error, EOFError, OSError) as exc:
        raise AudioError(f"cannot read {path}: {exc}") from exc
    if width != 2:
        raise AudioError(f"{path}: only PCM16 supported, got sample width {width}")
    pcm = np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0
    if channels > 1:
        pcm = pcm.reshape(-1, channels).mean(axis=1)
    if rate != SAMPLE_RATE:
        pcm = resample_poly(pcm, SAMPLE_RATE, rate).astype(np.float32)
    duration = len(pcm) / SAMPLE_RATE
    if duration > MAX_SECONDS:
        raise AudioError(f"{path}: {duration:.2f}s exceeds the {MAX_SECONDS:.0f}s cap")
    return Waveform(samples=pcm.astype(np.float32), sample_rate=SAMPLE_RATE)


def num_frames(num_samples: int) -> int:
    return 1 + (num_samples - WINDOW_SAMPLES) // HOP_SAMPLES


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def mel_filterbank(num_mels: int = NUM_MELS, num_fft: int = NUM_FFT,
                   sample_rate: int = SAMPLE_RATE) -> np.ndarray:
    """Triangular filters (num_mels, num_fft//2+1) spanning 0..sample_rate/2."""
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2), num_mels + 2)
    hz_points = _mel_to_hz(mel_points)
    bins = np.floor((num_fft + 1) * hz_points / sample_rate).astype(int)
    fb = np.zeros((num_mels, num_fft // 2 + 1), dtype=np.float64)
    for m in range(1, num_mels + 1):
        lo, mid, hi = bins[m - 1], bins[m], bins[m + 1]
        for k in range(lo, mid):
            if mid > lo:
                fb[m - 1, k] = (k - lo) / (mid - lo)
        for k in range(mid, hi):
            if hi > mid:
                fb[m - 1, k] = (hi - k) / (hi - mid)
    return fb


_FILTERBANK = mel_filterbank()
_HANN = np.hanning(WINDOW_SAMPLES)


@dataclass
class FeatureMatrix:
    frames: np.ndarray  # (T, 80) float32

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


@dataclass
class FeatureNormalizer:
    mean: np.ndarray  # (80,)
    std: np.ndarray   # (80,)

    def apply(self, frames: np.ndarray) -> np.ndarray:
        return (frames - self.mean) / self.std

    @staticmethod
    def fit(matrices: list[np.ndarray]) -> "FeatureNormalizer":
        stacked = np.concatenate(matrices, axis=0)
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        # near-constant dims (empty mel filters) are left unscaled
        std[std < 1e-3] = 1.0
        return FeatureNormalizer(mean=mean.astype(np.float32), std=std.astype(np.float32))


def log_mel(waveform: Waveform, normalizer: FeatureNormalizer | None = None) -> FeatureMatrix:
    x = waveform.samples
    if waveform.sample_rate != SAMPLE_RATE:
        raise AudioError(f"expected {SAMPLE_RATE} Hz, got {waveform.sample_rate}")
    if len(x) < WINDOW_SAMPLES:
        raise AudioError(f"audio shorter than one window ({len(x)} < {WINDOW_SAMPLES})")
    T = num_frames(len(x))
    idx = np.arange(WINDOW_SAMPLES)[None, :] + HOP_SAMPLES * np.arange(T)[:, None]
    windows = x[idx] * _HANN
    spectrum = np.abs(np.fft.rfft(windows, n=NUM_FFT, axis=1))
    mel_energy = spectrum @ _FILTERBANK.T
    feats = np.log(np.maximum(mel_energy, LOG_FLOOR)).astype(np.float32)
    if normalizer is not None:
        feats = normalizer.apply(feats).astype(np.float32)
    if not np.all(np.isfinite(feats)):
        raise AudioError("non-finite values in features")
    return FeatureMatrix(frames=feats)

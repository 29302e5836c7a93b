"""Audio ingestion and 80-d log-mel filterbank features at a 10 ms hop.

Window 25 ms / hop 10 ms / Hann / 512-point FFT / 80 mel filters over
0-8 kHz; natural log with a 1e-10 floor. Only the feature dimension and the
frame rate are externally constrained, the rest follows common ASR practice.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SAMPLE_RATE = 16000
WINDOW_SAMPLES = 400   # 25 ms
HOP_SAMPLES = 160      # 10 ms
NUM_FFT = 512
NUM_MELS = 80
MAX_SECONDS = 20.0
MAX_SAMPLE_RATE = 192000  # the resampling filter has 20*rate+1 taps at worst
LOG_FLOOR = 1e-10
TILE_FRAMES = 128      # log_mel's working set is a few tiles, whatever the length


class AudioError(ValueError):
    pass


@dataclass
class Waveform:
    samples: np.ndarray  # float32 in [-1, 1], mono, at SAMPLE_RATE

    @property
    def duration(self) -> float:
        return len(self.samples) / SAMPLE_RATE


def resample_poly(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Resample 1-D `x` by up/down polyphase, as float64, with the filter and
    alignment of `scipy.signal.resample_poly`'s defaults: a Kaiser (beta 5)
    windowed sinc, R = max(up, down), of 20R+1 taps, cutoff 1/R of Nyquist and
    DC gain `up`; output k is the zero-stuffed input's full convolution at
    k*down + 10R."""
    g = math.gcd(up, down)
    up, down = up // g, down // g
    R = max(up, down)
    half = 10 * R
    h = np.sinc(np.arange(-half, half + 1) / R) * np.kaiser(2 * half + 1, 5.0)
    h *= up / h.sum()
    taps = -(-len(h) // up)
    # phase r of the filter, reversed so that a window of the input dots it
    h = np.pad(h, (0, taps * up - len(h))).reshape(taps, up).T[:, ::-1].copy()
    n_out = -(-len(x) * up // down)
    last = ((n_out - 1) * down + half) // up + 1  # >= len(x), as half > down
    windows = sliding_window_view(
        np.pad(np.asarray(x, np.float64), (taps - 1, last - len(x))), taps)
    y = np.empty(n_out)
    # outputs k0, k0+up, ... share a phase, and their windows are `down` apart
    for k0 in range(min(up, n_out)):
        q, r = divmod(k0 * down + half, up)
        y[k0::up] = windows[q::down][:len(range(k0, n_out, up))] @ h[r]
    return y


def load_audio(path) -> Waveform:
    """Read a PCM16 RIFF/WAVE file as mono 16 kHz floats in [-1, 1].

    Stereo is channel-averaged; other rates are resampled. Utterances over
    20 s, and header rates outside 1 Hz..192 kHz, are rejected.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            nframes = wf.getnframes()
            if not 1 <= rate <= MAX_SAMPLE_RATE:
                raise AudioError(f"{path}: bad sample rate {rate}")
            if nframes / rate > MAX_SECONDS:
                raise AudioError(f"{path}: {nframes / rate:.2f}s exceeds the "
                                 f"{MAX_SECONDS:.0f}s cap")
            raw = wf.readframes(nframes)
    except (wave.Error, EOFError, OSError, RuntimeError) as exc:
        # wave raises a bare RuntimeError when a chunk that it has to skip
        # runs past the RIFF size field
        reason = str(exc) or "a chunk runs past the RIFF size field"
        raise AudioError(f"cannot read {path}: {reason}") from exc
    if width != 2:
        raise AudioError(f"{path}: only PCM16 supported, got sample width {width}")
    if len(raw) % (width * channels):
        raise AudioError(f"{path}: truncated data chunk, {len(raw)} bytes is not a "
                         f"whole number of {width * channels}-byte frames")
    pcm = np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0
    if channels > 1:
        pcm = pcm.reshape(-1, channels).mean(axis=1)
    if rate != SAMPLE_RATE:
        pcm = resample_poly(pcm, SAMPLE_RATE, rate)
    duration = len(pcm) / SAMPLE_RATE
    if duration > MAX_SECONDS:
        raise AudioError(f"{path}: {duration:.2f}s exceeds the {MAX_SECONDS:.0f}s cap")
    return Waveform(samples=pcm.astype(np.float32, copy=False))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular filters (NUM_MELS, NUM_FFT//2+1) spanning 0..SAMPLE_RATE/2."""
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(SAMPLE_RATE / 2), NUM_MELS + 2)
    hz_points = _mel_to_hz(mel_points)
    bins = np.floor((NUM_FFT + 1) * hz_points / SAMPLE_RATE).astype(int)
    fb = np.zeros((NUM_MELS, NUM_FFT // 2 + 1), dtype=np.float64)
    for m in range(1, NUM_MELS + 1):
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
        return ((frames - self.mean) / self.std).astype(np.float32, copy=False)

    @staticmethod
    def fit(matrices: list[np.ndarray]) -> "FeatureNormalizer":
        """Column mean and std of the matrices stacked along rows, bit for bit
        the stack's float32 `mean(axis=0)` and `std(axis=0)`, without the
        stack."""
        mean = _column_mean(matrices)
        std = np.sqrt(_column_mean(matrices, center=mean))
        # near-constant dims (empty mel filters) are left unscaled
        std[std < 1e-3] = 1.0
        return FeatureNormalizer(mean=mean, std=std)


def _column_mean(matrices: list[np.ndarray], center: np.ndarray | None = None) -> np.ndarray:
    """Column mean of the matrices stacked along rows (with `center`, of
    their squared deviations from it) in numpy's float32 arithmetic for the
    stack, copying one matrix at a time. An axis-0 sum adds the rows in
    order, so each matrix's sum starts from the running total as its first
    row; the total is divided by the integer count, as numpy's mean does."""
    total = np.zeros(matrices[0].shape[1], np.float32)
    for m in matrices:
        buf = np.empty((len(m) + 1, len(total)), np.float32)
        buf[0] = total
        if center is None:
            buf[1:] = m
        else:
            np.subtract(m, center, out=buf[1:])
            np.square(buf[1:], out=buf[1:])
        total = np.add.reduce(buf, axis=0)
    return (total / np.intp(sum(len(m) for m in matrices))).astype(np.float32)


def log_mel(waveform: Waveform, normalizer: FeatureNormalizer | None = None) -> FeatureMatrix:
    x = waveform.samples
    if len(x) < WINDOW_SAMPLES:
        raise AudioError(f"audio shorter than one window ({len(x)} < {WINDOW_SAMPLES})")
    frames = sliding_window_view(x, WINDOW_SAMPLES)[::HOP_SAMPLES]
    T = len(frames)
    # Every tile has b rows, the last one overlapping the one before it: a
    # BLAS product of a few rows can round differently from the same rows
    # inside a taller one, so a short last tile would change the features.
    b = min(TILE_FRAMES, T)
    padded = np.zeros((b, NUM_FFT))  # columns past the window stay zero
    spectrum = np.empty((b, NUM_FFT // 2 + 1), np.complex128)
    magnitude = np.empty(spectrum.shape)
    mel_energy = np.empty((b, NUM_MELS))
    feats = np.empty((T, NUM_MELS), np.float32)
    for i in range(0, T, b):
        i = min(i, T - b)
        np.multiply(frames[i:i + b], _HANN, out=padded[:, :WINDOW_SAMPLES])
        np.fft.rfft(padded, axis=1, out=spectrum)
        np.abs(spectrum, out=magnitude)
        np.matmul(magnitude, _FILTERBANK.T, out=mel_energy)
        np.maximum(mel_energy, LOG_FLOOR, out=mel_energy)
        np.log(mel_energy, out=feats[i:i + b], casting="same_kind")
    if normalizer is not None:
        feats = normalizer.apply(feats)
    if not np.all(np.isfinite(feats)):
        raise AudioError("non-finite values in features")
    return FeatureMatrix(frames=feats)

import wave
from unittest import mock

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings, strategies as st

from conftest import write_patched_rate_wav
from prefixasr import frontend


def write_wav(path, samples, rate=16000, channels=1):
    pcm = np.clip(np.asarray(samples) * 32767, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())


def tone(freq, seconds, rate=16000, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return amp * np.sin(2 * np.pi * freq * t)


class TestLoadAudio:
    def test_silence_one_second(self, tmp_path):
        p = tmp_path / "s.wav"
        write_wav(p, np.zeros(16000))
        wav = frontend.load_audio(p)
        assert len(wav.samples) == 16000
        assert np.all(wav.samples == 0.0)

    def test_stereo_averaged(self, tmp_path):
        p = tmp_path / "st.wav"
        left = tone(440, 0.5)
        right = tone(880, 0.5)
        inter = np.empty(2 * len(left))
        inter[0::2], inter[1::2] = left, right
        write_wav(p, inter, channels=2)
        wav = frontend.load_audio(p)
        assert len(wav.samples) == len(left)
        expect = (left + right) / 2
        assert np.allclose(wav.samples, expect, atol=2e-4)

    def test_resample_44k_preserves_duration(self, tmp_path):
        p = tmp_path / "r.wav"
        write_wav(p, tone(440, 1.0, rate=44100), rate=44100)
        wav = frontend.load_audio(p)
        assert wav.sample_rate == 16000
        assert abs(len(wav.samples) - 16000) <= 1

    def test_too_long_rejected(self, tmp_path):
        p = tmp_path / "long.wav"
        write_wav(p, np.zeros(16000 * 21))
        with pytest.raises(frontend.AudioError, match="cap"):
            frontend.load_audio(p)

    def test_corrupt_rejected(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"definitely not a riff file")
        with pytest.raises(frontend.AudioError):
            frontend.load_audio(p)

    def test_zero_sample_rate_rejected(self, tmp_path):
        p = tmp_path / "r0.wav"
        write_patched_rate_wav(p)
        with pytest.raises(frontend.AudioError, match="sample rate 0"):
            frontend.load_audio(p)

    def test_huge_sample_rate_rejected_before_resampling(self, tmp_path, monkeypatch):
        """A prime rate near 2**32 would need a filter of ~8.6e10 taps."""
        p = tmp_path / "fast.wav"
        write_patched_rate_wav(p, rate=2**32 - 5)

        def refuse(*args):
            raise AssertionError("resampled at a rate past the cap")
        monkeypatch.setattr(frontend, "resample_poly", refuse)
        with pytest.raises(frontend.AudioError, match="sample rate"):
            frontend.load_audio(p)

    def test_over_cap_header_rejected_before_resampling(self, tmp_path, monkeypatch):
        """100k frames at 1 Hz would resample to 1.6e9 samples."""
        p = tmp_path / "slow.wav"
        write_wav(p, np.zeros(100_000), rate=1)

        def refuse(*args):
            raise AssertionError("resampled an over-cap file")
        monkeypatch.setattr(frontend, "resample_poly", refuse)
        with pytest.raises(frontend.AudioError, match="cap"):
            frontend.load_audio(p)


OTHER_RATES = [8000, 11025, 22050, 44100, 48000, 16001]


def oracle_length(rate, n):
    """n samples, or about 3 s of audio for n=None."""
    return 3 * rate if n is None else n


@pytest.mark.parametrize("n", [0, 1, 5, 397, None], ids=str)
@pytest.mark.parametrize("rate", OTHER_RATES)
class TestResampleOracle:
    """The numpy polyphase resampler against scipy.signal.resample_poly."""

    def test_float64_matches_scipy(self, rate, n):
        x = np.random.default_rng(rate).uniform(-1, 1, oracle_length(rate, n))
        got = frontend.resample_poly(x, frontend.SAMPLE_RATE, rate)
        want = scipy.signal.resample_poly(x, frontend.SAMPLE_RATE, rate)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_load_audio_matches_scipy(self, tmp_path, rate, n, channels):
        # scipy filters float32 input in float32, hence the looser bound
        p = tmp_path / "a.wav"
        frames = oracle_length(rate, n)
        rng = np.random.default_rng(rate + channels)
        write_wav(p, rng.uniform(-0.9, 0.9, frames * channels), rate=rate,
                  channels=channels)
        with wave.open(str(p), "rb") as wf:
            raw = wf.readframes(wf.getnframes())
        pcm = np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0
        pcm = pcm.reshape(-1, channels).mean(axis=1)
        want = scipy.signal.resample_poly(pcm, frontend.SAMPLE_RATE, rate)
        got = frontend.load_audio(p).samples
        assert got.dtype == np.float32 and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


class TestLogMel:
    def test_frame_count_one_second(self):
        wav = frontend.Waveform(np.zeros(16000, dtype=np.float32))
        feats = frontend.log_mel(wav)
        assert feats.frames.shape == (98, 80)

    def test_silence_hits_log_floor(self):
        wav = frontend.Waveform(np.zeros(16000, dtype=np.float32))
        feats = frontend.log_mel(wav)
        assert np.allclose(feats.frames, np.log(frontend.LOG_FLOOR))

    def test_tone_energy_concentrated(self):
        wav = frontend.Waveform(tone(1000, 1.0).astype(np.float32))
        feats = frontend.log_mel(wav)
        argmaxes = feats.frames.argmax(axis=1)
        # all frames agree on the peak bin, and it maps to ~1 kHz
        assert len(set(argmaxes.tolist())) == 1
        fb = frontend.mel_filterbank()
        peak_hz = np.argmax(fb[argmaxes[0]]) * 16000 / 512
        assert 800 <= peak_hz <= 1250

    def test_deterministic(self):
        wav = frontend.Waveform(tone(300, 0.7).astype(np.float32))
        a = frontend.log_mel(wav).frames
        b = frontend.log_mel(wav).frames
        assert np.array_equal(a, b)

    def test_scaling_leaves_argmax_invariant(self):
        base = tone(500, 0.5).astype(np.float32)
        f1 = frontend.log_mel(frontend.Waveform(base)).frames
        f2 = frontend.log_mel(frontend.Waveform(0.25 * base)).frames
        assert np.array_equal(f1.argmax(axis=1), f2.argmax(axis=1))

    def test_too_short_rejected(self):
        with pytest.raises(frontend.AudioError, match="window"):
            frontend.log_mel(frontend.Waveform(np.zeros(399, dtype=np.float32)))

    @given(st.integers(400, 40000))
    @settings(max_examples=50, deadline=None)
    def test_framing_formula(self, n):
        wav = frontend.Waveform(np.zeros(n, dtype=np.float32))
        feats = frontend.log_mel(wav)
        assert feats.frames.shape[0] == 1 + (n - 400) // 160

    @given(st.integers(400, 48000))
    @example(400)
    @example(559)
    @example(561)
    @example(16000)
    @settings(max_examples=40, deadline=None)
    def test_windows_and_features_match_gathered_frames(self, n):
        """The strided frames equal the gathered (T, 400) index array."""
        x = (0.1 * np.random.default_rng(n).standard_normal(n)).astype(np.float32)
        T = 1 + (n - 400) // 160
        idx = np.arange(400)[None, :] + 160 * np.arange(T)[:, None]
        windows = x[idx] * np.hanning(400)
        spectrum = np.abs(np.fft.rfft(windows, n=512, axis=1))
        feats = np.log(np.maximum(spectrum @ frontend.mel_filterbank().T, 1e-10))
        with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as rfft:
            got = frontend.log_mel(frontend.Waveform(x)).frames
        assert np.array_equal(rfft.call_args.args[0], windows)
        assert np.array_equal(got, feats.astype(np.float32))

    def test_normalizer_applied(self):
        rng = np.random.default_rng(0)
        wav = frontend.Waveform(
            (0.1 * rng.standard_normal(8000)).astype(np.float32))
        raw = frontend.log_mel(wav).frames
        norm = frontend.FeatureNormalizer.fit([raw])
        feats = frontend.log_mel(wav, normalizer=norm).frames
        assert np.all(np.abs(feats.mean(axis=0)) < 1e-2)
        s = feats.std(axis=0)
        # degenerate dims stay unscaled near zero; live dims normalize to 1
        assert np.all((np.abs(s - 1.0) < 1e-2) | (s < 1e-2))


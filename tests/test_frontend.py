import wave

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


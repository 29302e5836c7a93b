import struct
import tracemalloc
import wave
from unittest import mock

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings, strategies as st

from conftest import (LIST_PAST_RIFF_SIZE, PCM16_DATA, PCM16_FMT, riff_wav,
                      write_patched_rate_wav)
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

    def test_chunk_past_riff_size_rejected(self, tmp_path):
        p = tmp_path / "list.wav"
        p.write_bytes(LIST_PAST_RIFF_SIZE)
        with pytest.raises(frontend.AudioError, match="RIFF size"):
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


CHUNK_IDS = st.sampled_from([b"LIST", b"fmt ", b"data", b"junk"]) | st.binary(min_size=4, max_size=4)
SIZE_FIELDS = st.integers(0, 2**32 - 1) | st.integers(0, 1100)


@st.composite
def damaged_wavs(draw):
    """A valid 0.03 s WAV, then maybe: a chunk inserted, size fields
    rewritten, header bytes changed, the end cut off."""
    chunks = [(b"fmt ", PCM16_FMT), (b"data", PCM16_DATA)]
    if draw(st.booleans()):
        chunks.insert(draw(st.integers(0, 2)), (draw(CHUNK_IDS), draw(st.binary(max_size=120))))
    blob = bytearray(riff_wav(chunks))
    size_fields, at = [4], 12  # the RIFF size, then each chunk's
    for _, payload in chunks:
        size_fields.append(at + 4)
        at += 8 + len(payload) + len(payload) % 2
    for field in draw(st.lists(st.sampled_from(size_fields), max_size=2)):
        struct.pack_into("<I", blob, field, draw(SIZE_FIELDS))
    for pos, byte in draw(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)),
                                   max_size=4)):
        blob[pos] = byte
    if draw(st.booleans()):
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    return bytes(blob)


@pytest.fixture(scope="module")
def damaged_path(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged") / "a.wav"


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(blob=damaged_wavs())
@example(blob=LIST_PAST_RIFF_SIZE)
def test_damaged_wav_gives_features_or_audio_error(damaged_path, blob):
    damaged_path.write_bytes(blob)
    try:
        feats = frontend.log_mel(frontend.load_audio(damaged_path))
    except frontend.AudioError:
        return
    assert feats.frames.shape[1] == frontend.NUM_MELS


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
    # the tile edges, n = 400 + 160 * (T - 1) for T = 1 (above), 127, 128,
    # 129, 256 and 257
    @example(20560)
    @example(20720)
    @example(20880)
    @example(41200)
    @example(41360)
    @settings(max_examples=40, deadline=None)
    def test_windows_and_features_match_gathered_frames(self, n):
        """The tiles' FFT inputs are the gathered (T, 400) index array's rows,
        zero-padded to 512; a last tile overlaps the one before it."""
        x = (0.1 * np.random.default_rng(n).standard_normal(n)).astype(np.float32)
        T = 1 + (n - 400) // 160
        idx = np.arange(400)[None, :] + 160 * np.arange(T)[:, None]
        windows = x[idx] * np.hanning(400)
        spectrum = np.abs(np.fft.rfft(windows, n=512, axis=1))
        feats = np.log(np.maximum(spectrum @ frontend.mel_filterbank().T, 1e-10))
        inputs, real_rfft = [], np.fft.rfft

        def recording_rfft(a, *args, **kwargs):
            inputs.append(a.copy())  # the tile buffer is reused
            return real_rfft(a, *args, **kwargs)

        with mock.patch.object(np.fft, "rfft", recording_rfft):
            got = frontend.log_mel(frontend.Waveform(x)).frames
        b = min(frontend.TILE_FRAMES, T)
        rows = np.concatenate([np.arange(min(i, T - b), min(i, T - b) + b)
                               for i in range(0, T, b)])
        assert set(rows.tolist()) == set(range(T))
        tiles = np.concatenate(inputs)
        assert np.array_equal(tiles[:, :400], windows[rows])
        assert not tiles[:, 400:].any()
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


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 400), st.floats(-40, 40), st.floats(0.01, 20)),
                min_size=1, max_size=40),
       st.integers(0, 2**32 - 1), st.data())
def test_fit_matches_stacked_statistics(shapes, seed, data):
    """One matrix has a constant column, and column 0 is at the log floor
    everywhere, as an empty mel filter's is."""
    rng = np.random.default_rng(seed)
    matrices = [(offset + scale * rng.standard_normal((rows, 80))).astype(np.float32)
                for rows, offset, scale in shapes]
    matrices[data.draw(st.integers(0, len(matrices) - 1))][:, 1 + seed % 79] = 3.0
    for m in matrices:
        m[:, 0] = np.log(frontend.LOG_FLOOR)
    copies = [m.copy() for m in matrices]
    stacked = np.concatenate(matrices)
    std = stacked.std(axis=0)
    std[std < 1e-3] = 1.0
    norm = frontend.FeatureNormalizer.fit(matrices)
    assert norm.mean.dtype == norm.std.dtype == np.float32
    np.testing.assert_array_equal(norm.mean, stacked.mean(axis=0))
    np.testing.assert_array_equal(norm.std, std)
    assert all(np.array_equal(m, c) for m, c in zip(matrices, copies))


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_log_mel_working_set_twenty_seconds():
    """Tiles bound the working set: the result is 0.64 MB, the bound 4 MB."""
    x = (0.1 * np.random.default_rng(0).standard_normal(20 * 16000)).astype(np.float32)
    wav = frontend.Waveform(x)
    frontend.log_mel(wav)  # the first call builds numpy's FFT plan cache
    assert traced_peak(lambda: frontend.log_mel(wav)) < 4e6


def test_fit_working_set_one_matrix():
    """fit copies one matrix at a time, never the stack (14.1 MB here)."""
    rng = np.random.default_rng(1)
    matrices = [rng.standard_normal((int(n), 80)).astype(np.float32)
                for n in rng.integers(100, 2000, 44)]
    largest = max(m.nbytes for m in matrices)
    assert traced_peak(lambda: frontend.FeatureNormalizer.fit(matrices)) < 2 * largest + 1e6

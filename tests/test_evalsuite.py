import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fast_config
from prefixasr import evalsuite, frontend, trainer
from prefixasr.evalsuite import (AlignmentMatrix, EmptyReferenceError,
                                 EvalReport, LanguageStats, WerResult,
                                 alignment_matrix,
                                 argmax_monotonicity, cosine_matrix,
                                 eval_corpus, export_heatmap, normalize_text,
                                 read_heatmap_csv, read_pgm, wer)
from prefixasr.system import AsrSystem
from prefixasr.tokenizer import CharTokenizer


def brute_force_distance(ref, hyp):
    """Plain quadratic DP without edit-type bookkeeping."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j - 1] + (r != h), prev[j] + 1, cur[-1] + 1))
        prev = cur
    return prev[-1]


def backtrace_counts(ref, hyp):
    """(S, D, I) by a full cost table and a backtrace from its corner that
    prefers substitution or match, then deletion, then insertion."""
    n, m = len(ref), len(hyp)
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[:, 0] = np.arange(n + 1)
    cost[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost[i, j] = min(cost[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]),
                             cost[i - 1, j] + 1, cost[i, j - 1] + 1)
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i, j] == cost[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and cost[i, j] == cost[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, dels, ins


# -- normalization -----------------------------------------------------------

def test_normalize_lowercases_and_strips_punctuation():
    assert normalize_text("Hello, World!") == "hello world"


def test_normalize_keeps_apostrophes():
    assert normalize_text("don't stop") == "don't stop"


def test_normalize_collapses_whitespace():
    assert normalize_text("  a   b\tc ") == "a b c"


# -- wer ---------------------------------------------------------------------

def test_wer_identical_is_zero():
    r = wer("a b c", "a b c")
    assert r.wer == 0.0 and r.distance == 0


def test_wer_single_deletion():
    r = wer("a b c", "a c")
    assert (r.substitutions, r.deletions, r.insertions) == (0, 1, 0)
    assert r.wer == pytest.approx(1 / 3)


def test_wer_can_exceed_one():
    r = wer("a", "b c")
    assert r.substitutions + r.insertions == 2
    assert r.wer == 2.0


def test_wer_empty_reference_rejected():
    with pytest.raises(EmptyReferenceError):
        wer("", "something")


def test_wer_empty_hypothesis_is_all_deletions():
    r = wer("a b c", "")
    assert r.deletions == 3 and r.wer == 1.0


def test_wer_over_no_words_is_zero():
    assert WerResult().wer == 0.0
    assert LanguageStats(utterances=2).wer == 0.0


def test_wer_applies_normalization():
    assert wer("Hello, world.", "hello world").wer == 0.0


words = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=0, max_size=8)


@settings(max_examples=200)
@given(ref=words, hyp=words)
def test_wer_matches_quadratic_oracle(ref, hyp):
    if not ref:
        return
    r = wer(" ".join(ref), " ".join(hyp), normalize=False)
    assert r.distance == brute_force_distance(ref, hyp)
    assert r.num_ref_words == len(ref)


def _word_pair(symbols):
    w = st.lists(st.sampled_from([f"w{i}" for i in range(symbols)]), max_size=12)
    return st.tuples(w.filter(bool), w)


@settings(max_examples=300, deadline=None)
@given(pair=st.integers(2, 12).flatmap(_word_pair))
def test_wer_split_matches_backtrace(pair):
    """Few symbols make ties common; the one-pass split must pick the same
    optimum as the backtrace."""
    ref, hyp = pair
    r = wer(" ".join(ref), " ".join(hyp), normalize=False)
    assert (r.substitutions, r.deletions, r.insertions) == backtrace_counts(ref, hyp)


@settings(max_examples=100)
@given(a=words, b=words)
def test_edit_distance_symmetry(a, b):
    if not a or not b:
        return
    d1 = wer(" ".join(a), " ".join(b), normalize=False).distance
    d2 = wer(" ".join(b), " ".join(a), normalize=False).distance
    assert d1 == d2


# -- reports -----------------------------------------------------------------

def make_report():
    return EvalReport(per_language={
        "de": LanguageStats(utterances=2, substitutions=1, num_ref_words=10),
        "en": LanguageStats(utterances=3, deletions=3, num_ref_words=10),
        "zz": LanguageStats(utterances=1, num_ref_words=5),
    })


def test_average_is_unweighted():
    report = make_report()
    assert report.average == pytest.approx((0.1 + 0.3 + 0.0) / 3)


def test_single_language_average():
    report = EvalReport(per_language={
        "fr": LanguageStats(utterances=1, insertions=2, num_ref_words=8)})
    assert report.average == report.per_language["fr"].wer


def test_language_order_canonical_then_extra():
    assert make_report().language_order() == ["en", "de", "zz"]


def test_table_has_avg_column():
    table = make_report().to_table()
    head, body = table.splitlines()
    assert head.split() == ["en", "de", "zz", "Avg"]
    assert body.split()[-1] == f"{make_report().average * 100:.1f}"


def test_report_json_roundtrip():
    blob = json.loads(make_report().to_json())
    assert blob["per_language"]["en"]["deletions"] == 3
    assert blob["average"] == pytest.approx(make_report().average)


# -- corpus evaluation -------------------------------------------------------

class EchoSystem:
    """Stand-in that transcribes every utterance perfectly."""

    def __init__(self, texts):
        self.normalizer = None
        self._texts = iter(texts)
        from prefixasr.config import RunConfig
        self.cfg = RunConfig()

    def transcribe(self, feats, max_len=None):
        return next(self._texts)


def test_eval_corpus_echo_oracle(toy_corpus):
    _, entries = toy_corpus
    system = EchoSystem([e.text for e in entries])
    report = eval_corpus(system, entries)
    assert report.average == 0.0
    assert all(s.wer == 0.0 for s in report.per_language.values())
    assert sum(s.utterances for s in report.per_language.values()) == len(entries)
    assert report.skipped == []
    assert report.decode_config_digest


def test_eval_corpus_sums_counts_per_language(toy_corpus):
    _, entries = toy_corpus
    hyps = ["", *(e.text + " extra" for e in entries[1:])]
    report = eval_corpus(EchoSystem(hyps), entries)
    expected = {}
    for e, hyp in zip(entries, hyps):
        r = wer(e.text, hyp)
        s = expected.setdefault(e.language, LanguageStats())
        s.utterances += 1
        s.deletions += r.deletions
        s.insertions += r.insertions
        s.num_ref_words += r.num_ref_words
    assert report.per_language == expected
    assert sum(s.deletions for s in expected.values()) == len(entries[0].text.split())
    assert sum(s.insertions for s in expected.values()) == len(entries) - 1


def test_eval_corpus_records_skips(toy_corpus, tmp_path):
    _, entries = toy_corpus
    bad = tmp_path / "broken.wav"
    bad.write_bytes(b"not a wav file")
    entries = entries + [trainer.ManifestEntry(str(bad), "oops", "aa")]
    system = EchoSystem([e.text for e in entries])
    report = eval_corpus(system, entries)
    assert len(report.skipped) == 1
    assert report.skipped[0]["audio_path"] == str(bad)
    counted = sum(s.utterances for s in report.per_language.values())
    assert counted == len(entries) - 1


def test_eval_corpus_skips_empty_reference(toy_corpus):
    _, entries = toy_corpus
    empty = trainer.ManifestEntry(entries[0].audio_path, "?!", "aa")
    system = EchoSystem([e.text for e in entries])
    report = eval_corpus(system, [empty] + entries)
    assert len(report.skipped) == 1
    assert "no words" in report.skipped[0]["reason"]
    assert report.average == 0.0
    counted = sum(s.utterances for s in report.per_language.values())
    assert counted == len(entries)


def test_eval_corpus_skips_audio_past_position_table(toy_corpus):
    _, entries = toy_corpus
    # 12 encoder positions hold 96 log-mel frames, a little under 1 s of audio
    cfg = fast_config(["encoder.max_frames=12", "eval.max_decode_tokens=3"])
    system = AsrSystem(cfg, CharTokenizer.from_texts([e.text for e in entries]))
    report = eval_corpus(system, entries)
    long = [e.audio_path for e in entries
            if frontend.load_audio(e.audio_path).duration > 1.0]
    assert 0 < len(long) < len(entries)
    assert [s["audio_path"] for s in report.skipped] == long
    assert all("position table" in s["reason"] for s in report.skipped)
    counted = sum(s.utterances for s in report.per_language.values())
    assert counted == len(entries) - len(long)


# -- alignment ---------------------------------------------------------------

def test_cosine_matrix_basic():
    a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    b = np.array([[3.0, 0.0], [0.0, -1.0]])
    out = cosine_matrix(a, b)
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] == pytest.approx(0.0)
    assert out[1, 1] == pytest.approx(-1.0)
    assert out[2, 0] == 0.0  # zero vector convention


def test_cosine_scale_invariance():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 8))
    b = rng.normal(size=(5, 8))
    np.testing.assert_allclose(cosine_matrix(a, b),
                               cosine_matrix(3.7 * a, 0.2 * b), atol=1e-12)


def test_alignment_matrix_shape_and_range():
    cfg = fast_config()
    tok = CharTokenizer.from_texts(["abc"])
    system = AsrSystem(cfg, tok, seed=0)
    T = 70
    feats = frontend.FeatureMatrix(
        frames=np.random.default_rng(0).normal(size=(T, 80)).astype(np.float32))
    text = "abc"
    m = alignment_matrix(system, feats, text)
    U = -(-T // cfg.encoder.subsample_stride)
    M = -(-U // cfg.bridge.stack_n)
    assert m.values.shape == (M, len(text))
    assert np.all(m.values >= -1.0) and np.all(m.values <= 1.0)
    assert m.stride_ms == 10.0 * cfg.encoder.subsample_stride * cfg.bridge.stack_n


def test_argmax_monotonicity():
    mono = np.eye(4)
    assert argmax_monotonicity(mono) == 1.0
    anti = np.eye(4)[::-1]
    assert argmax_monotonicity(anti) == 0.0
    assert argmax_monotonicity(np.ones((1, 3))) == 1.0


# -- heatmap export ----------------------------------------------------------

def test_heatmap_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    values = np.clip(rng.normal(size=(6, 4)), -1, 1)
    m = AlignmentMatrix(values=values)
    csv_path, _ = export_heatmap(m, tmp_path / "hm")
    np.testing.assert_allclose(read_heatmap_csv(csv_path), values, atol=1e-6)


def test_pgm_endpoint_mapping(tmp_path):
    _, pgm = export_heatmap(AlignmentMatrix(values=np.array([[1.0]])),
                            tmp_path / "one")
    assert read_pgm(pgm)[0, 0] == 255
    _, pgm = export_heatmap(AlignmentMatrix(values=np.array([[-1.0]])),
                            tmp_path / "neg")
    assert read_pgm(pgm)[0, 0] == 0
    _, pgm = export_heatmap(AlignmentMatrix(values=np.array([[0.0]])),
                            tmp_path / "mid")
    assert read_pgm(pgm)[0, 0] in (127, 128)


def test_pgm_shape_matches_matrix(tmp_path):
    values = np.zeros((3, 7))
    _, pgm = export_heatmap(AlignmentMatrix(values=values), tmp_path / "z")
    assert read_pgm(pgm).shape == (3, 7)

"""Word-error-rate evaluation, per-language reports, and audio/text
alignment heatmaps.

WER uses a word-level Levenshtein alignment after light normalization
(lowercase, punctuation stripped except apostrophes). Corpus reports
aggregate edit counts per language and average the per-language rates
without weighting by utterance count.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field, fields
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import frontend
from .checkpoint import config_digest

# fixed column order for report tables; other languages follow alphabetically
CANONICAL_LANGS = ["en", "de", "nl", "fr", "es", "it", "pt", "pl"]

_PUNCT_TABLE = str.maketrans("", "", string.punctuation.replace("'", ""))


class EmptyReferenceError(ValueError):
    """A WER against an empty reference is undefined."""


def normalize_text(text: str) -> str:
    return " ".join(text.lower().translate(_PUNCT_TABLE).split())


@dataclass
class WerResult:
    """S/D/I edit counts against num_ref_words reference words."""
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    num_ref_words: int = 0

    @property
    def distance(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        """(S+D+I)/N_ref, and 0.0 over no words."""
        return self.distance / self.num_ref_words if self.num_ref_words else 0.0


def wer(reference: str, hypothesis: str, normalize: bool = True) -> WerResult:
    """Minimum-edit-distance word alignment; wer = (S+D+I)/N_ref."""
    if normalize:
        reference = normalize_text(reference)
        hypothesis = normalize_text(hypothesis)
    ref = reference.split()
    hyp = hypothesis.split()
    if not ref:
        raise EmptyReferenceError("reference transcript has no words")
    # prev[j] is (cost, S, D, I) of the best alignment of the ref words so
    # far with hyp[:j]; min keeps the first of equal costs, so a tie goes to
    # substitution or match, then deletion, then insertion
    prev = [(j, 0, 0, j) for j in range(len(hyp) + 1)]
    for i, r in enumerate(ref, 1):
        row = [(i, 0, i, 0)]
        for h, diag, up in zip(hyp, prev, prev[1:]):
            e = r != h
            left = row[-1]
            row.append(min((diag[0] + e, diag[1] + e, diag[2], diag[3]),
                           (up[0] + 1, up[1], up[2] + 1, up[3]),
                           (left[0] + 1, left[1], left[2], left[3] + 1),
                           key=itemgetter(0)))
        prev = row
    _, subs, dels, ins = prev[-1]
    return WerResult(substitutions=subs, deletions=dels, insertions=ins,
                     num_ref_words=len(ref))


@dataclass
class LanguageStats(WerResult):
    """One language's summed edit counts over its utterances."""
    utterances: int = 0


@dataclass
class EvalReport:
    per_language: dict[str, LanguageStats]
    skipped: list[dict] = field(default_factory=list)
    decode_config_digest: str = ""

    @property
    def average(self) -> float:
        """Unweighted mean over languages."""
        if not self.per_language:
            return 0.0
        return float(np.mean([s.wer for s in self.per_language.values()]))

    def language_order(self) -> list[str]:
        known = [l for l in CANONICAL_LANGS if l in self.per_language]
        extra = sorted(set(self.per_language) - set(CANONICAL_LANGS))
        return known + extra

    def to_dict(self) -> dict:
        return {
            "per_language": {
                lang: {"wer": s.wer, "utterances": s.utterances,
                       "substitutions": s.substitutions,
                       "deletions": s.deletions, "insertions": s.insertions}
                for lang, s in sorted(self.per_language.items())},
            "average": self.average,
            "skipped": self.skipped,
            "decode_config_digest": self.decode_config_digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        """Aligned text table: one WER column per language, then Avg."""
        langs = self.language_order()
        headers = langs + ["Avg"]
        values = [f"{self.per_language[l].wer * 100:.1f}" for l in langs]
        values.append(f"{self.average * 100:.1f}")
        widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
        head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        body = "  ".join(v.rjust(w) for v, w in zip(values, widths))
        return head + "\n" + body + "\n"


def eval_corpus(system, entries) -> EvalReport:
    """Greedy-decode every utterance. Unreadable audio, audio too long for
    the model's position tables, and a reference with no words once
    normalized (WER is undefined) are recorded as skips."""
    stats: dict[str, LanguageStats] = {}
    skipped: list[dict] = []
    for e in entries:
        if not normalize_text(e.text):
            skipped.append({"audio_path": e.audio_path,
                            "reason": f"reference {e.text!r} has no words"})
            continue
        try:
            wav = frontend.load_audio(e.audio_path)
            feats = frontend.log_mel(wav, system.normalizer)
            hyp = system.transcribe(feats)
        except (frontend.AudioError, OSError) as exc:
            skipped.append({"audio_path": e.audio_path, "reason": str(exc)})
            continue
        r = wer(e.text, hyp)
        s = stats.setdefault(e.language, LanguageStats())
        s.utterances += 1
        for f in fields(WerResult):
            setattr(s, f.name, getattr(s, f.name) + getattr(r, f.name))
    return EvalReport(per_language=stats, skipped=skipped,
                      decode_config_digest=config_digest(system.cfg.to_dict()))


@dataclass
class AlignmentMatrix:
    values: np.ndarray  # (M audio embeddings, K text tokens)
    utterance_id: str = ""
    stride_ms: float = 0.0


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities; zero vectors map to 0."""
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    dots = a @ b.T
    denom = na * nb.T
    out = np.zeros_like(dots)
    np.divide(dots, denom, out=out, where=denom > 0)
    return np.clip(out, -1.0, 1.0)


def embedding_ms(cfg) -> float:
    """Audio time per LM input embedding: the frontend hop, times the
    encoder's subsampling stride, times the bridge's stack_n."""
    hop_ms = 1000.0 * frontend.HOP_SAMPLES / frontend.SAMPLE_RATE
    return hop_ms * cfg.encoder.subsample_stride * cfg.bridge.stack_n


def alignment_matrix(system, features, text: str,
                     utterance_id: str = "") -> AlignmentMatrix:
    """Cosine similarity of bridge outputs against the LM's input embeddings
    of the reference tokens."""
    from .numcore import no_grad
    with no_grad():
        audio = system.embed_audio(features).data
    token_ids = system.tokenizer.encode(text)
    text_emb = system.lm.params["tok"].data[np.asarray(token_ids)]
    return AlignmentMatrix(
        values=cosine_matrix(audio.astype(np.float64), text_emb.astype(np.float64)),
        utterance_id=utterance_id, stride_ms=embedding_ms(system.cfg))


def argmax_monotonicity(values: np.ndarray) -> float:
    """Fraction of consecutive audio frames whose best-matching text token
    index does not decrease. 1.0 for a single-frame matrix."""
    idx = values.argmax(axis=1)
    if len(idx) < 2:
        return 1.0
    return float(np.mean(idx[1:] >= idx[:-1]))


def export_heatmap(matrix: AlignmentMatrix, path_prefix) -> tuple[Path, Path]:
    """Write `<prefix>.csv` (row-major, 6 decimals) and `<prefix>.pgm`
    (8-bit grayscale, [-1,1] mapped linearly to [0,255])."""
    prefix = Path(path_prefix)
    csv_path = prefix.with_suffix(".csv")
    pgm_path = prefix.with_suffix(".pgm")
    v = matrix.values
    lines = [",".join(f"{x:.6f}" for x in row) for row in v]
    csv_path.write_text("\n".join(lines) + "\n")
    pixels = np.clip(np.rint((v + 1.0) * 0.5 * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode()
    pgm_path.write_bytes(header + pixels.tobytes())
    return csv_path, pgm_path


def read_heatmap_csv(path) -> np.ndarray:
    rows = [[float(x) for x in line.split(",")]
            for line in Path(path).read_text().splitlines() if line]
    return np.asarray(rows)


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    magic, dims, maxval, rest = data.split(b"\n", 3)
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    width, height = map(int, dims.split())
    return np.frombuffer(rest, dtype=np.uint8,
                         count=width * height).reshape(height, width)

"""Character tokenizer with special ids, shared by the LM and the CTC head.

LM side: pad/unk/bos/eos occupy ids 0..3, characters follow. CTC side: blank
is 0 and the same characters sit at 1..C (no specials).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PAD, UNK, BOS, EOS = 0, 1, 2, 3
NUM_SPECIALS = 4


def mask_tokens(text_ids, fraction: float, rng: np.random.Generator) -> list[int]:
    """Replace each non-special token by unk with probability `fraction`.

    Input-side only; callers keep the original ids as prediction targets.
    """
    if fraction <= 0.0:
        return list(text_ids)
    draws = rng.random(len(text_ids))
    return [UNK if (i >= NUM_SPECIALS and d < fraction) else i
            for i, d in zip(text_ids, draws)]


@dataclass
class CharTokenizer:
    chars: list[str]
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {c: i for i, c in enumerate(self.chars)}

    @classmethod
    def from_texts(cls, texts) -> "CharTokenizer":
        chars = sorted({c for t in texts for c in t})
        return cls(chars=chars)

    @property
    def vocab_size(self) -> int:
        return NUM_SPECIALS + len(self.chars)

    @property
    def ctc_vocab_size(self) -> int:
        """Number of non-blank CTC symbols."""
        return len(self.chars)

    def encode(self, text: str) -> list[int]:
        return [NUM_SPECIALS + self._index[c] if c in self._index else UNK
                for c in text]

    def decode(self, ids) -> str:
        out = []
        for i in ids:
            if i >= NUM_SPECIALS:
                out.append(self.chars[i - NUM_SPECIALS])
            elif i == UNK:
                out.append("⁇")  # unknown marker
        return "".join(out)

    def encode_ctc(self, text: str) -> list[int]:
        """Character ids for the CTC inventory (blank=0, chars at 1..C)."""
        return [1 + self._index[c] for c in text if c in self._index]

    def decode_ctc(self, ids) -> str:
        return "".join(self.chars[i - 1] for i in ids if 1 <= i <= len(self.chars))

    def to_dict(self) -> dict:
        return {"chars": self.chars}

    @classmethod
    def from_dict(cls, d: dict) -> "CharTokenizer":
        chars = d["chars"]
        if not isinstance(chars, list) or not all(isinstance(c, str) and len(c) == 1
                                                  for c in chars):
            raise ValueError(f"tokenizer chars must be a list of characters, got {chars!r}")
        return cls(chars=list(chars))

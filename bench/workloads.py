"""The three benchmark workloads: seeded tone corpora and the configs they run.

Every input is a function of (workload, seed). Transcripts are random strings
over a-z and space; each character renders to about 0.2 s of tone audio via
``prefixasr.toydata``, so text length sets utterance duration. Lengths are
spread evenly over the workload's range (in a seeded order) so that every
seed carries the same amount of audio and the seed only changes content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
SPACE_SHARE = 0.15
LANGUAGES = ("aa", "bb")

# Every fifth step validates and saves state, so one step in five carries a
# stall: p50 sees plain steps and the p90 tail sees stall steps.
EVAL_INTERVAL = 5
# Early stopping would cut rounds short at a seed-dependent step.
EARLY_STOP_EVALS = 1000


@dataclass(frozen=True)
class Workload:
    """One training round is one call into the trainer with steps_per_round
    steps. Rounds repeat until the run's seconds are spent, and every round
    of a run is the same computation."""
    name: str
    kind: str            # "pretrain", "joint" or "transcribe"
    min_chars: int
    max_chars: int
    num_utts: int
    steps_per_round: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("pretrain-short", "pretrain", 2, 12, 64, 80,
             "stage-1 CTC on 0.5-2.6 s utterances, about 20 per step: one graph "
             "per utterance, so interpreter and tape overhead dominate"),
    Workload("joint-long", "joint", 25, 90, 32, 120,
             "stage-2 joint training on 5-18 s utterances, 2-4 per step: "
             "encoder U up to ~230 and LM sequences up to ~170, so arithmetic "
             "and sequence length dominate"),
    Workload("transcribe-mixed", "transcribe", 4, 90, 44, 0,
             "offline eval of 1-18 s utterances one after another: frontend, "
             "no-grad encoder and the KV-cache decode loop, no tape"),
)}


def make_text(rng: np.random.Generator, length: int) -> str:
    """Random letters with int(length * SPACE_SHARE) single spaces at random
    interior positions, so a length always renders to the same duration."""
    chars = [ALPHABET[i] for i in rng.integers(len(ALPHABET), size=length)]
    spaces = int(length * SPACE_SHARE)
    if spaces:
        # choose among length-1-spaces slots, then spread the picks apart
        picks = np.sort(rng.choice(length - 1 - spaces, size=spaces, replace=False))
        for j, p in enumerate(picks):
            chars[1 + p + j] = " "
    return "".join(chars)


def utterances(workload: Workload, seed: int) -> list[tuple[str, str]]:
    """(transcript, language) pairs for this workload and seed.

    Languages alternate along the sorted lengths, so both languages hold the
    same length mix and language-balanced sampling draws the same amount of
    work whatever the seed."""
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([seed, index])
    lengths = np.rint(np.linspace(workload.min_chars, workload.max_chars,
                                  workload.num_utts)).astype(int)
    order = rng.permutation(len(lengths))
    return [(make_text(rng, int(lengths[i])), LANGUAGES[i % len(LANGUAGES)])
            for i in order]


def overrides(workload: Workload, seed: int) -> list[str]:
    """Config overrides on top of the RunConfig defaults (tiny preset,
    dropout 0.1, valid_fraction 0.05)."""
    joint = workload.kind == "joint"
    steps = workload.steps_per_round
    out = [f"training.seed={seed}",
           f"training.eval_interval={EVAL_INTERVAL}",
           f"training.early_stop_evals={EARLY_STOP_EVALS}",
           # stage 2 starts from an encoder checkpoint made with zero steps
           f"training.pretrain.max_steps={0 if joint else steps}",
           f"training.joint.max_steps={steps}"]
    if joint:
        out.append("training.mask_fraction=0.1")
    return out


def settings(workload: Workload) -> dict:
    """Everything besides the seed that the recorded final losses depend on."""
    return {"min_chars": workload.min_chars, "max_chars": workload.max_chars,
            "num_utts": workload.num_utts, "space_share": SPACE_SHARE,
            "overrides": overrides(workload, 0)}

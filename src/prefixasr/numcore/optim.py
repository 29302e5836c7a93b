"""Adam with bias correction, learning-rate schedule, gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, ShapeError


BETA1, BETA2, EPS = 0.9, 0.98, 1e-9  # the moments' decay rates and the update's floor


class NonFiniteGradientError(RuntimeError):
    """Raised when an update is rejected because a gradient is not finite."""


@dataclass
class AdamState:
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def ensure(self, params: list[Tensor]):
        if not self.m:
            self.m = [np.zeros_like(p.data) for p in params]
            self.v = [np.zeros_like(p.data) for p in params]


def adam_step(params: list[Tensor], grads: list[np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place. Rejects non-finite grads."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    state.ensure(params)
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.data.shape:
            raise ShapeError(f"param {i}: grad shape {g.shape} != param {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in param {i}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def schedule_lr(section, step: int) -> float:
    """Linear warmup to peak, then geometric decay hitting final_lr at
    total_steps. `section` is a config StageSection."""
    if step < section.warmup_steps:
        return section.peak_lr * step / section.warmup_steps
    if step >= section.total_steps:
        return section.final_lr
    frac = (step - section.warmup_steps) / (section.total_steps - section.warmup_steps)
    return section.peak_lr * (section.final_lr / section.peak_lr) ** frac


def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total

"""Verify reverse-mode gradients against central finite differences.

Run in 64-bit mode: wrap the model construction and the check in
``use_dtype(np.float64)`` so truncation error stays far below the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


@dataclass
class GradCheckReport:
    per_param: dict[str, float]
    max_rel_error: float


def grad_check(fn, params: dict[str, Tensor], h: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients of scalar fn() against central differences.

    Relative error uses max(1, |analytic|, |numeric|) as the scale, so tiny
    gradients are compared absolutely.
    """
    for p in params.values():
        p.grad = None
    loss = fn()
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite loss during grad check")
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    per_param = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(fn().data)
            flat[i] = orig - h
            lo = float(fn().data)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise FloatingPointError(f"non-finite loss perturbing {name}[{i}]")
            num[i] = (hi - lo) / (2 * h)
        a = analytic[name].reshape(-1)
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(num)))
        per_param[name] = float(np.max(np.abs(a - num) / scale)) if flat.size else 0.0

    worst = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(per_param=per_param, max_rel_error=worst)

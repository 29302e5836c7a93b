from .tensor import Tensor, ShapeError, as_tensor, param, no_grad, use_dtype
from . import ops
from .optim import (AdamState, NonFiniteGradientError, adam_step, clip_grad_norm,
                    schedule_lr)
from .gradcheck import GradCheckReport, grad_check
from .rng import generator

__all__ = [
    "Tensor", "ShapeError", "as_tensor", "param", "no_grad", "use_dtype",
    "ops", "AdamState", "NonFiniteGradientError",
    "adam_step", "clip_grad_norm", "schedule_lr", "GradCheckReport",
    "grad_check", "generator",
]

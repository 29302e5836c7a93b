"""Dense tensors with tape-based reverse-mode automatic differentiation.

Everything is a flat numpy array wrapped in a ``Tensor``. Ops build a tape of
backward closures, each node stamped with its creation number, and
``Tensor.backward()`` pops the nodes newest-first. Compute dtype is float32 by
default and switchable to float64 for gradient verification (see
``use_dtype``).
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from typing import Callable, Sequence

import numpy as np

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True
# creation numbers: a tensor is always made after the tensors it is made from
_CLOCK = itertools.count()


@contextlib.contextmanager
def use_dtype(dtype):
    """Temporarily switch the dtype new tensors are created with."""
    global _DEFAULT_DTYPE
    old = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = old


@contextlib.contextmanager
def no_grad():
    global _GRAD_ENABLED
    old = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = old


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_order")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = False
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._order = next(_CLOCK)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def backward(self, seed: np.ndarray | None = None):
        """Pop tape nodes newest-first. Every consumer of a node was made after
        it, so a node pops only once all its gradient has arrived. A later
        contribution is summed out of place: ops may hand the same array to
        several parents."""
        if seed is None:
            if self.data.size != 1:
                raise ShapeError("backward() without seed needs a scalar")
            seed = np.ones_like(self.data)
        if not self.requires_grad:
            return
        pending = {self: np.asarray(seed, dtype=self.data.dtype)}
        heap = [(-self._order, self)]
        while heap:
            node = heapq.heappop(heap)[1]
            g = pending.pop(node)
            if node._backward is None:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
                continue
            for parent, pg in node._backward(g):
                if not parent.requires_grad:
                    continue
                if parent in pending:
                    pending[parent] = pending[parent] + pg
                else:
                    pending[parent] = pg
                    heapq.heappush(heap, (-parent._order, parent))

    # operator sugar; implementations live in ops.py (imported at the bottom)
    def __add__(self, other):
        return ops.add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return ops.mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return ops.sub(self, other)

    def __neg__(self):
        return ops.mul(self, -1.0)

    def __truediv__(self, other):
        return ops.div(self, other)

    def __matmul__(self, other):
        return ops.matmul(self, other)

    def reshape(self, *shape):
        return ops.reshape(self, shape)

    def transpose(self, *axes):
        return ops.transpose(self, axes or None)

    def sum(self, axis=None):
        return ops.sum_(self, axis)

    def mean(self, axis=None):
        return ops.mean(self, axis)


def param(data) -> Tensor:
    """Leaf tensor tracked by the optimizer."""
    t = Tensor(np.asarray(data, dtype=_DEFAULT_DTYPE))
    t.requires_grad = True
    return t


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def make(data: np.ndarray, parents: Sequence[Tensor],
         backward: Callable[[np.ndarray], list] | None) -> Tensor:
    """Build an op result, recording the tape entry only when needed.

    Ops hand over float arrays of the dtype they computed in, so the result
    skips Tensor.__init__'s coercion; only a numpy scalar (what a full
    reduction or arithmetic on 0-d arrays gives) is wrapped as a 0-d array."""
    out = object.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    if _GRAD_ENABLED and backward is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        out._order = next(_CLOCK)
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


# ops imports Tensor and make from this module, so it comes after them
from . import ops  # noqa: E402

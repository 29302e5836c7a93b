"""Differentiable primitives over :class:`~prefixasr.numcore.tensor.Tensor`.

Broadcasting is limited to scalars and trailing-dim bias adds; batched matmul
requires identical leading dims. Softmax/log-sum-exp are max-subtracted and
safe for inputs up to magnitude 1e4.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, ShapeError, as_tensor, make

LN_EPS = 1e-5  # every layer norm's, on the tape and in the decode's folded norms


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g over the leading axes that broadcasting `shape` added."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g.reshape(shape)


def _pair(a, b):
    """Coerce a plain scalar b to the dtype of tensor a, to avoid upcasts."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    return as_tensor(a), as_tensor(b)


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data + b.data

    def backward(g):
        return [(a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(g, b.data.shape))]

    return make(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data - b.data

    def backward(g):
        return [(a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(-g, b.data.shape))]

    return make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data * b.data

    def backward(g):
        return [(a, _unbroadcast(g * b.data, a.data.shape)),
                (b, _unbroadcast(g * a.data, b.data.shape))]

    return make(out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = a.data / b.data

    def backward(g):
        return [(a, _unbroadcast(g / b.data, a.data.shape)),
                (b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))]

    return make(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim > 2 or b.data.ndim > 2:
        if a.data.shape[:-2] != b.data.shape[:-2]:
            raise ShapeError(f"batched matmul dims differ: {a.shape} vs {b.shape}")
    out = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return [(a, ga.reshape(a.data.shape)), (b, gb.reshape(b.data.shape))]

    return make(out, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def backward(g):
        return [(a, g.reshape(a.data.shape))]

    return make(out, (a,), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    out = np.transpose(a.data, axes)

    def backward(g):
        return [(a, np.transpose(g, None if axes is None else np.argsort(axes)))]

    return make(out, (a,), backward)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        return list(zip(tensors, pieces))

    return make(out, tuple(tensors), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return [(a, full)]

    return make(out, (a,), backward)


def sum_(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            return [(a, np.broadcast_to(g, a.data.shape).copy())]
        return [(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())]

    return make(out, (a,), backward)


def mean(a: Tensor, axis=None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis)

    def backward(g):
        if axis is None:
            return [(a, np.broadcast_to(g / n, a.data.shape).copy())]
        return [(a, np.broadcast_to(np.expand_dims(g, axis) / n, a.data.shape).copy())]

    return make(out, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def backward(g):
        return [(a, g * out)]

    return make(out, (a,), backward)


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def backward(g):
        return [(a, g / a.data)]

    return make(out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def backward(g):
        return [(a, g * 0.5 / out)]

    return make(out, (a,), backward)


def pow_(a: Tensor, p: float) -> Tensor:
    out = a.data ** p

    def backward(g):
        return [(a, g * p * a.data ** (p - 1))]

    return make(out, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def backward(g):
        return [(a, g * (1.0 - out * out))]

    return make(out, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in one new buffer."""
    sig = np.negative(x)
    np.exp(sig, out=sig)
    np.add(1.0, sig, out=sig)
    return np.divide(1.0, sig, out=sig)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)

    def backward(g):
        return [(a, g * out * (1.0 - out))]

    return make(out, (a,), backward)


def swish(a: Tensor) -> Tensor:
    """x * sigmoid(x); backward recomputes the sigmoid from x."""
    out = _sigmoid(a.data)
    np.multiply(a.data, out, out=out)

    def backward(g):
        sig = _sigmoid(a.data)
        # g * (sig + x * sig * (1 - sig))
        ga = a.data * sig
        ga *= 1.0 - sig
        np.add(sig, ga, out=ga)
        return [(a, np.multiply(g, ga, out=ga))]

    return make(out, (a,), backward)


def glu(a: Tensor) -> Tensor:
    """Halve the last axis; first half gated by sigmoid of the second.
    Backward recomputes the sigmoid from the gate half."""
    n = a.data.shape[-1]
    if n % 2 != 0:
        raise ShapeError(f"GLU axis size {n} not even")
    x, gate = np.split(a.data, 2, axis=-1)
    out = _sigmoid(gate)
    np.multiply(x, out, out=out)

    def backward(g):
        sig = _sigmoid(gate)
        ga = np.empty_like(a.data)
        gx, ggate = np.split(ga, 2, axis=-1)
        np.multiply(g, sig, out=gx)
        # g * x * sig * (1 - sig)
        np.multiply(g, x, out=ggate)
        ggate *= sig
        np.subtract(1.0, sig, out=sig)
        ggate *= sig
        return [(a, ga)]

    return make(out, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return [(a, (g - dot) * out)]

    return make(out, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def backward(g):
        return [(a, g - np.exp(out) * g.sum(axis=axis, keepdims=True))]

    return make(out, (a,), backward)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    s = np.exp(a.data - m).sum(axis=axis, keepdims=True)
    out = np.squeeze(m + np.log(s), axis=axis)

    def backward(g):
        soft = np.exp(a.data - m) / s
        return [(a, np.expand_dims(g, axis) * soft)]

    return make(out, (a,), backward)


def standardise(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm without gain and bias over the last axis: xhat = (x - mu) *
    inv, the mean mu and inv = 1 / sqrt(var + LN_EPS)."""
    # one pass over x for the mean and one for the variance; the same
    # arithmetic as x.mean/x.var, without var recomputing the mean
    d = x.shape[-1]
    mu = np.add.reduce(x, -1, keepdims=True) / d
    xhat = x - mu
    var = np.add.reduce(xhat * xhat, -1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    return xhat, mu, inv


def softmax_in_place(scores: np.ndarray) -> np.ndarray:
    """The max-subtracted softmax over the last axis, in place."""
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Keeps the per-row mean and inv; backward rebuilds xhat from x."""
    out, mu, inv = standardise(x.data)
    out *= gain.data
    out += bias.data

    def backward(g):
        xhat = x.data - mu
        xhat *= inv
        d = xhat.shape[-1]
        lead = tuple(range(xhat.ndim - 1))
        dgain = (g * xhat).sum(axis=lead) if gain.requires_grad else None
        grads = []
        if x.requires_grad:
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
            dxhat = g * gain.data
            m1 = np.add.reduce(dxhat, -1, keepdims=True) / d
            m2 = np.add.reduce(dxhat * xhat, -1, keepdims=True) / d
            dxhat -= m1
            xhat *= m2
            dxhat -= xhat
            grads.append((x, np.multiply(inv, dxhat, out=dxhat)))
        if dgain is not None:
            grads.append((gain, dgain))
        if bias.requires_grad:
            grads.append((bias, g.sum(axis=lead)))
        return grads

    return make(out, (x, gain, bias), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return [(table, gt)]

    return make(out, (table,), backward)


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Pick x[i, idx[i]] along the last axis of a 2-D tensor."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(x.data.shape[0])
    out = x.data[rows, idx]

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[rows, idx] = g
        return [(x, gx)]

    return make(out, (x,), backward)


def _pad_time(a: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the time axis (second to last) by `pad` on both sides."""
    out = np.zeros((*a.shape[:-2], a.shape[-2] + 2 * pad, a.shape[-1]), a.dtype)
    out[..., pad:pad + a.shape[-2], :] = a
    return out


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Time convolution: x (..., T, Cin), w (k, Cin, Cout), b (Cout,)."""
    k, cin, cout = w.data.shape
    lead, T = x.data.shape[:-2], x.data.shape[-2]
    To = (T + 2 * pad - k) // stride + 1
    taps = [(Ellipsis, slice(j, j + stride * (To - 1) + 1, stride), slice(None))
            for j in range(k)]
    xp = _pad_time(x.data, pad)
    out = np.broadcast_to(b.data, (*lead, To, cout)).copy()
    flat = out.reshape(-1, cout)
    for j in range(k):
        flat += xp[taps[j]].reshape(-1, cin) @ w.data[j]

    def backward(g):
        # re-pad rather than keep a padded copy alive until backward
        xp = _pad_time(x.data, pad)
        g2 = g.reshape(-1, cout)
        gw = np.empty_like(w.data)
        grads = [(w, gw), (b, g2.sum(axis=0))]
        gxp = np.zeros_like(xp) if x.requires_grad else None
        for j in range(k):
            gw[j] = xp[taps[j]].reshape(-1, cin).T @ g2
            if gxp is not None:
                # the rows one tap touches are distinct, so a slice add is exact
                gxp[taps[j]] += (g2 @ w.data[j].T).reshape(*lead, To, cin)
        if gxp is not None:
            grads.append((x, gxp[..., pad:pad + T, :]))
        return grads

    return make(out, (x, w, b), backward)


def depthwise_conv1d(x: Tensor, w: Tensor, b: Tensor, pad: int = 0) -> Tensor:
    """Per-channel time convolution: x (..., T, C), w (k, C), b (C,). Stride 1."""
    k, C = w.data.shape
    T = x.data.shape[-2]
    To = T + 2 * pad - k + 1
    xp = _pad_time(x.data, pad)
    out = np.broadcast_to(b.data, (*x.data.shape[:-2], To, C)).copy()
    for j in range(k):
        out += xp[..., j:j + To, :] * w.data[j]

    def backward(g):
        xp = _pad_time(x.data, pad)
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w.data)
        for j in range(k):
            gw[j] = (xp[..., j:j + To, :] * g).reshape(-1, C).sum(axis=0)
            gxp[..., j:j + To, :] += g * w.data[j]
        return [(x, gxp[..., pad:pad + T, :]), (w, gw),
                (b, g.reshape(-1, C).sum(axis=0))]

    return make(out, (x, w, b), backward)


def dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean dropout keep mask: False with probability p."""
    return rng.random(shape) >= p


def _keep_scale(p: float, dtype) -> np.floating:
    """The inverted-dropout scale 1 / (1 - p) in dtype arithmetic. Applied
    as (x * keep) * scale it gives the bits of x times a float mask of 0
    and 1 / (1 - p)."""
    dtype = np.dtype(dtype).type
    return dtype(1) / dtype(1 - p)


def dropout(x: Tensor, keep: np.ndarray, p: float) -> Tensor:
    """Inverted dropout (x * keep) * 1/(1-p) for a boolean keep mask that
    broadcasts to x, drawn at rate p by dropout_mask."""
    s = _keep_scale(p, x.data.dtype)
    out = x.data * keep
    out *= s

    def backward(g):
        gx = g * keep
        gx *= s
        return [(x, gx)]

    return make(out, (x,), backward)


def mul_const(x: Tensor, c: np.ndarray) -> Tensor:
    """Multiply by a constant (non-differentiated) array that broadcasts to x,
    e.g. a 0/1 mask over padded rows."""
    out = x.data * c

    def backward(g):
        return [(x, g * c)]

    return make(out, (x,), backward)


def add_mask(x: Tensor, mask: np.ndarray) -> Tensor:
    """Add a constant (non-differentiated) mask, e.g. -1e9 at banned positions."""
    out = x.data + mask

    def backward(g):
        return [(x, g)]

    return make(out, (x,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x (..., d_in) @ w (d_in, d_out) + b as one tape node; backward
    returns gradients only for the inputs that need one."""
    d_in, d_out = w.data.shape
    out = x.data.reshape(-1, d_in) @ w.data
    out += b.data
    out = out.reshape(*x.data.shape[:-1], d_out)

    def backward(g):
        g2 = g.reshape(-1, d_out)
        grads = []
        if w.requires_grad:
            grads.append((w, x.data.reshape(-1, d_in).T @ g2))
        if x.requires_grad:
            grads.append((x, (g2 @ w.data.T).reshape(x.data.shape)))
        if b.requires_grad:
            grads.append((b, g2.sum(axis=0)))
        return grads

    return make(out, (x, w, b), backward)


def lora_linear(x: Tensor, w: Tensor, b: Tensor, down: Tensor, up: Tensor,
                scale: float) -> Tensor:
    """linear(x, w, b) plus the LoRA delta scale * (x @ down) @ up as one
    tape node, for x (..., d_in); down (d_in, r), up (r, d_out). backward
    returns gradients only for the inputs that need one: x, down and up
    when w and b are the frozen base."""
    d_in, d_out = w.data.shape
    x2 = x.data.reshape(-1, d_in)
    xd = x2 @ down.data
    s = np.asarray(scale, dtype=xd.dtype)
    out = x2 @ w.data
    out += b.data
    out = (out + (xd @ up.data) * s).reshape(*x.data.shape[:-1], d_out)

    def backward(g):
        g2 = g.reshape(-1, d_out)
        gs = g2 * s
        gxd = gs @ up.data.T
        grads = []
        if up.requires_grad:
            grads.append((up, xd.T @ gs))
        if down.requires_grad:
            grads.append((down, x2.T @ gxd))
        if x.requires_grad:
            grads.append((x, (g2 @ w.data.T + gxd @ down.data.T).reshape(x.data.shape)))
        if w.requires_grad:
            grads.append((w, x2.T @ g2))
        if b.requires_grad:
            grads.append((b, g2.sum(axis=0)))
        return grads

    return make(out, (x, w, b, down, up), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
              mask: np.ndarray | None = None,
              keep: np.ndarray | None = None, p: float = 0.0) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    q: (..., Tq, d), k/v: (..., Tk, d). mask is additive (-1e9 at banned
    keys) and broadcasts to (..., h, Tq, Tk); keep is a boolean dropout keep
    mask over the attention weights, drawn at rate p. The forward splits
    heads, scales q k^T by 1/sqrt(d/h), adds the mask, takes a
    max-subtracted softmax, applies dropout, multiplies by v and merges
    heads: the arithmetic of the same steps as separate ops, done in place
    on the score buffer. The tape keeps the softmax weights only; the
    backward is analytic from them (Dao et al. 2022), rebuilds the dropped
    weights when v needs a gradient, and returns gradients only for the
    inputs that need one. Returns (..., Tq, d).
    """
    *lead, Tq, d = q.data.shape
    dh = d // num_heads
    n = len(lead)
    heads = (*range(n), n + 1, n, n + 2)  # (.., T, h, dh) <-> (.., h, T, dh)
    swap = (*range(n + 1), n + 2, n + 1)  # the last two axes of (.., h, T, dh)

    def split(a):
        return a.reshape(*a.shape[:-1], num_heads, dh).transpose(heads)

    def merge(a):
        return a.transpose(heads).reshape(*lead, a.shape[-2], d)

    def dropped(weights):
        if keep is None:
            return weights
        out = weights * keep
        out *= s
        return out

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    weights = np.matmul(qh, np.swapaxes(kh, -1, -2))
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=weights.dtype)
    s = None if keep is None else _keep_scale(p, weights.dtype)
    weights *= scale
    if mask is not None:
        weights += mask
    softmax_in_place(weights)
    out = merge(np.matmul(dropped(weights), vh))

    def backward(g):
        go = split(g)
        grads = []
        if v.requires_grad:
            grads.append((v, merge(np.matmul(dropped(weights).transpose(swap), go))))
        if q.requires_grad or k.requires_grad:
            gs = np.matmul(go, vh.transpose(swap))
            if keep is not None:
                gs *= keep
                gs *= s
            # the softmax backward (gs - sum(gs * weights)) * weights, times scale
            gs -= (gs * weights).sum(axis=-1, keepdims=True)
            gs *= weights
            gs *= scale
            if q.requires_grad:
                grads.append((q, merge(np.matmul(gs, kh))))
            if k.requires_grad:
                grads.append((k, merge(np.matmul(qh.transpose(swap), gs).transpose(swap))))
        return grads

    return make(out, (q, k, v), backward)

"""Minimal reverse-mode tensor engine.

Values are immutable :class:`Tensor` objects wrapping C-contiguous numpy
arrays of rank <= 4 (float32 by default; float64 in gradient-check mode).
Operations executed while a :class:`Tape` is active append nodes in forward
order, so the tape is already topologically sorted and :func:`backward` is a
single reverse sweep that visits each node exactly once.  Operations run with
no active tape are forward-only, which is how teacher evaluations stay out of
the gradient.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import ContractError, DomainError, ShapeError

MAX_RANK = 4
LOG_CLAMP = 1e-12
NORMALIZE_EPS = 1e-12
LAYER_NORM_EPS = 1e-5

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """Immutable dense array of rank <= 4 with row-major storage."""

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None,
                 dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim > MAX_RANK:
            raise ShapeError(f"rank {arr.ndim} exceeds maximum {MAX_RANK}: shape {arr.shape}")
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"

    # Operator sugar for the encoders; it routes through the module-level
    # ops so the tape sees everything.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def parameter(data, name: str, dtype=np.float32) -> Tensor:
    return Tensor(data, requires_grad=True, name=name, dtype=dtype)


class Node:
    """One recorded forward operation."""

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of forward operations for one differentiation pass."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _as_tensor(x, like: Optional[Tensor] = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else np.float32
    return Tensor(np.asarray(x, dtype=dtype))


def _record(op: str, inputs: Sequence[Tensor], out_arr: np.ndarray,
            backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> Tensor:
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_arr, requires_grad=requires, dtype=out_arr.dtype)
    tape = _active_tape()
    if tape is not None and requires:
        tape.nodes.append(Node(op, tuple(inputs), out, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    ad, bd = a.data, b.data
    out = ad + bd

    def backward(g):
        return _unbroadcast(g, ad.shape), _unbroadcast(g, bd.shape)

    return _record("add", (a, b), out, backward)


def sub(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    ad, bd = a.data, b.data
    out = ad - bd

    def backward(g):
        return _unbroadcast(g, ad.shape), _unbroadcast(-g, bd.shape)

    return _record("sub", (a, b), out, backward)


def mul(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    ad, bd = a.data, b.data
    out = ad * bd

    def backward(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _record("mul", (a, b), out, backward)


def div(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    ad, bd = a.data, b.data
    out = ad / bd

    def backward(g):
        ga = _unbroadcast(g / bd, ad.shape)
        gb = _unbroadcast(-g * ad / (bd * bd), bd.shape)
        return ga, gb

    return _record("div", (a, b), out, backward)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    return _record("neg", (a,), -ad, lambda g: (-g,))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = np.exp(ad)
    return _record("exp", (a,), out, lambda g: (g * out,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = np.log(ad)
    return _record("log", (a,), out, lambda g: (g / ad,))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = np.sqrt(ad)
    return _record("sqrt", (a,), out, lambda g: (g * (0.5 / out),))


def gelu(a) -> Tensor:
    """Exact Gaussian error linear unit: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    a = _as_tensor(a)
    ad = a.data
    cdf = 0.5 * (1.0 + _erf(ad * _INV_SQRT2))

    def backward(g):
        pdf = np.exp(-0.5 * ad * ad) * _INV_SQRT_2PI
        return (g * (cdf + ad * pdf),)

    return _record("gelu", (a,), ad * cdf, backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_(a, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = ad.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, ad.shape).astype(ad.dtype, copy=True),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, ad.shape).astype(ad.dtype, copy=True),)

    return _record("sum", (a,), np.asarray(out), backward)


def mean(a, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = ad.reshape(shape)
    if out.ndim > MAX_RANK:
        raise ShapeError(f"reshape to rank {out.ndim} exceeds maximum {MAX_RANK}")

    def backward(g):
        return (g.reshape(ad.shape),)

    return _record("reshape", (a,), out.copy(), backward)


def transpose(a, axes: Optional[tuple] = None) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = np.transpose(ad, axes)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inv),)

    return _record("transpose", (a,), np.ascontiguousarray(out), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ContractError("concat of zero tensors")
    arrays = [t.data for t in ts]
    out = np.concatenate(arrays, axis=axis)
    sizes = [arr.shape[axis] for arr in arrays]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(piece)
                     for piece in np.split(g, offsets, axis=axis))

    return _record("concat", ts, out, backward)


def take_index(a, index: int, axis: int) -> Tensor:
    """Select one slice along an axis, dropping that axis."""
    a = _as_tensor(a)
    ad = a.data
    out = np.take(ad, index, axis=axis)

    def backward(g):
        z = np.zeros_like(ad)
        sl = [slice(None)] * ad.ndim
        sl[axis] = index
        z[tuple(sl)] = g
        return (z,)

    return _record("take_index", (a,), np.ascontiguousarray(out), backward)


def gather_rows(table, ids: np.ndarray) -> Tensor:
    """Row lookup (embedding): out[i] = table[ids[i]]."""
    table = _as_tensor(table)
    td = table.data
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows ids must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= td.shape[0]):
        raise ContractError(f"gather_rows index out of range for table of {td.shape[0]} rows")
    out = td[idx]

    def backward(g):
        z = np.zeros_like(td)
        np.add.at(z, idx, g)
        return (z,)

    return _record("gather_rows", (table,), out.copy(), backward)


def extract_patches(images, patch: int) -> Tensor:
    """[B, C, S, S] -> [B, (S/patch)^2, C*patch*patch] in raster order."""
    images = _as_tensor(images)
    ad = images.data
    if ad.ndim != 4:
        raise ShapeError(f"extract_patches expects rank-4 input, got shape {ad.shape}")
    b, c, s, s2 = ad.shape
    if s != s2 or s % patch != 0:
        raise ShapeError(f"extract_patches: spatial shape {(s, s2)} not divisible by patch {patch}")
    g_ = s // patch
    x = ad.reshape(b, c, g_, patch, g_, patch).transpose(0, 2, 4, 1, 3, 5)
    out = np.ascontiguousarray(x.reshape(b, g_ * g_, c * patch * patch))

    def backward(g):
        x = g.reshape(b, g_, g_, c, patch, patch)
        x = x.transpose(0, 3, 1, 4, 2, 5)
        return (np.ascontiguousarray(x.reshape(b, c, s, s)),)

    return _record("extract_patches", (images,), out, backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product.  2-D operands follow the standard contract; stacked
    operands are supported when either b is 2-D (shared weight) or both
    carry identical leading dimensions (batched attention)."""
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands: {ad.shape} x {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree: {ad.shape} x {bd.shape}")

    if bd.ndim == 2:
        def backward(g):
            ga = g @ bd.T
            gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return ga, gb
    elif ad.shape[:-2] == bd.shape[:-2]:
        def backward(g):
            ga = g @ bd.swapaxes(-1, -2)
            gb = ad.swapaxes(-1, -2) @ g
            return ga, gb
    else:
        raise ShapeError(f"matmul: unsupported stacking: {ad.shape} x {bd.shape}")

    out = ad @ bd
    return _record("matmul", (a, b), out, backward)


def weight_norm_linear(x, direction, scale) -> Tensor:
    """Linear map whose rows are scale[j] * direction[j] / ||direction[j]||.

    direction: [K, D], scale: [K]; x: [B, D] -> [B, K].
    Composed from primitives so adjoints come for free.
    """
    direction = _as_tensor(direction)
    scale = _as_tensor(scale)
    x = _as_tensor(x, like=direction)
    k, d = direction.shape
    if scale.shape != (k,):
        raise ShapeError(f"weight_norm_linear: scale {scale.shape} vs direction {direction.shape}")
    if x.shape[-1] != d:
        raise ShapeError(f"weight_norm_linear: input {x.shape} vs direction {direction.shape}")
    norms = sqrt(sum_(mul(direction, direction), axis=1))        # [K]
    coeff = reshape(div(scale, norms), (k, 1))                   # [K, 1]
    w = mul(direction, coeff)                                    # [K, D]
    return matmul(x, transpose(w))


# ---------------------------------------------------------------------------
# fused normalizations and losses
# ---------------------------------------------------------------------------

def softmax(x, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """exp((x - max)/T) normalized along an axis; slices sum to one."""
    if temperature <= 0:
        raise DomainError(f"softmax temperature must be positive, got {temperature}")
    x = _as_tensor(x)
    z = x.data / temperature
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out / temperature,)

    return _record("softmax", (x,), out, backward)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    z = xd - xd.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _record("log_softmax", (x,), out, backward)


def l2_normalize(x, axis: int = -1) -> Tensor:
    """x / max(||x||_2, eps) along an axis, eps-guarded against zero vectors."""
    x = _as_tensor(x)
    xd = x.data
    eps = NORMALIZE_EPS
    raw = np.sqrt((xd * xd).sum(axis=axis, keepdims=True))
    n = np.maximum(raw, eps)
    out = xd / n

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        grad = (g - out * dot) / n
        clamped = raw <= eps
        if clamped.any():
            grad = np.where(clamped, g / eps, grad)
        return (grad,)

    return _record("l2_normalize", (x,), out, backward)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = _as_tensor(x)
    gain = _as_tensor(gain, like=x)
    bias = _as_tensor(bias, like=x)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: input {x.shape} needs gain/bias of shape ({d},), "
                         f"got {gain.shape} and {bias.shape}")
    xd, gd, bd = x.data, gain.data, bias.data
    eps = LAYER_NORM_EPS

    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gd + bd

    def backward(g):
        dgain = (g * xhat).reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gd
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgain, dbias

    return _record("layer_norm", (x, gain, bias), out, backward)


def soft_cross_entropy(target, pred) -> Tensor:
    """-sum(target * log(max(pred, clamp))), mean over rows for 2-D inputs.

    The target is consumed as plain values: no gradient flows into whatever
    produced it, matching a stop-gradient on the teacher side.
    """
    pred = _as_tensor(pred)
    target_arr = np.asarray(target, dtype=pred.dtype)
    pd = pred.data
    if target_arr.shape != pd.shape:
        raise ShapeError(f"soft_cross_entropy: target {target_arr.shape} vs pred {pd.shape}")
    rows = 1 if pd.ndim < 2 else int(np.prod(pd.shape[:-1]))
    clamp = LOG_CLAMP
    pc = np.maximum(pd, clamp)
    out = np.asarray(-(target_arr * np.log(pc)).sum() / rows, dtype=pd.dtype)

    def backward(g):
        grad = np.where(pd >= clamp, -target_arr / pc, 0.0) * (g / rows)
        return (grad.astype(pd.dtype, copy=False),)

    return _record("soft_cross_entropy", (pred,), out, backward)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

class GradientMap:
    """Gradients keyed by parameter tensor; named parameters also resolve
    by name."""

    def __init__(self):
        self._grads: dict[int, tuple[Tensor, Tensor]] = {}
        self._by_name: dict[str, Tensor] = {}

    def _put(self, param: Tensor, grad: np.ndarray):
        g = Tensor(grad, dtype=grad.dtype)
        self._grads[id(param)] = (param, g)
        if param.name is not None:
            self._by_name[param.name] = g

    def __getitem__(self, key) -> Tensor:
        if isinstance(key, Tensor):
            return self._grads[id(key)][1]
        return self._by_name[key]


def backward(tape: Tape, loss: Tensor, params: Iterable[Tensor]) -> GradientMap:
    """Reverse sweep over the tape, seeding d(loss) = 1.

    The result holds a gradient for every tensor in ``params`` and no
    other; one that the loss does not reach gets zeros of matching shape.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}

    for node in reversed(tape.nodes):
        gout = grads.pop(id(node.output), None)
        if gout is None:
            continue
        input_grads = node.backward_fn(gout)
        for t, g in zip(node.inputs, input_grads):
            if g is None or not t.requires_grad:
                continue
            acc = grads.get(id(t))
            grads[id(t)] = g if acc is None else acc + g

    out = GradientMap()
    for p in params:
        g = grads.get(id(p))
        out._put(p, g if g is not None else np.zeros_like(p.data))
    return out

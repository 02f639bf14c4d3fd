"""Minimal reverse-mode tensor engine.

Values are immutable :class:`Tensor` objects wrapping C-contiguous numpy
arrays of rank <= 4 (float32 by default; float64 in gradient-check mode).
Operations executed while a :class:`Tape` is active append nodes in forward
order, so the tape is already topologically sorted and :func:`backward` is a
single reverse sweep that visits each node exactly once.  Operations run with
no active tape are forward-only, which is how teacher evaluations stay out of
the gradient.

An op is recorded when a tape is active and one of its inputs requires
grad; :func:`_record` alone decides.  An op allocates and keeps the same
arrays whether or not it is recorded: its forward builds its output and
an adjoint closure over what that adjoint reads, and :func:`_record` drops
at once the closure of an op it does not record.  So the teacher's
forward, an evaluation forward or a finite-difference probe keeps nothing
once it returns.

A forward or an adjoint writes in place only into arrays it allocated
itself.  It never writes into its incoming gradient, its inputs' data or an
array it captured: ``add``'s adjoint can hand the same array to both of its
inputs, so :func:`backward` may hold one array as the gradient of two
tensors, and a captured array may be another node's output or, as
``reshape`` returns a view, share another node's memory.

The sweep consumes its tape: :func:`backward` pops each node as it runs the
node's adjoint, so an array that only the tape holds is freed once the
sweep has passed every node that saved it.  A biased projection is one
:func:`linear` node, which saves one array.

Where libc has ``mallopt`` (glibc), importing the module fixes malloc's mmap
and trim thresholds, so the pages a sweep frees stay mapped for the next
step instead of going back to the kernel and being faulted in again.
"""

from __future__ import annotations

import ctypes
import math
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError

MAX_RANK = 4
LOG_CLAMP = 1e-12
NORMALIZE_EPS = 1e-12
LAYER_NORM_EPS = 1e-5

# Python floats, not NumPy float64 scalars: under NumPy's scalar promotion
# (NEP 50) a float64 scalar would turn a float32 operand into float64.
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# erf by Abramowitz & Stegun 7.1.26: for z >= 0,
# erf(z) = 1 - t * (a1 + a2 t + ... + a5 t^4) * exp(-z^2), t = 1 / (1 + p z),
# with |error| <= 1.5e-7
_ERF_P_OVER_SQRT2 = 0.3275911 / math.sqrt(2.0)
_ERF_A = (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)  # a5..a1

# glibc mallopt parameters (malloc.h), and the values set on import: those
# glibc's dynamic policy reaches after it frees a 32 MiB block
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def _keep_freed_pages_mapped() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no glibc: the allocator's defaults
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_keep_freed_pages_mapped()


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
    # op so the tape sees everything.
    def __add__(self, other):
        return add(self, other)


class Node:
    """One recorded forward operation."""

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of forward operations for one differentiation pass;
    :func:`backward` empties ``nodes`` and sets ``swept``."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.swept = False

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


def _requires_grad(inputs: Sequence[Tensor]) -> bool:
    for t in inputs:
        if t.requires_grad:
            return True
    return False


def _record(op: str, inputs: Sequence[Tensor], out_arr: np.ndarray,
            backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> Tensor:
    # The op made out_arr itself from valid tensors: a C-contiguous float
    # array of rank <= MAX_RANK, or a numpy scalar from 0-d operands, so
    # Tensor.__init__'s checks are skipped.
    out = Tensor.__new__(Tensor)
    out.data, out.requires_grad, out.name = np.asarray(out_arr), _requires_grad(inputs), None
    if out.requires_grad:
        tape = _active_tape()
        if tape is not None:
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
    """Gaussian error linear unit x * Phi(x) = 0.5 * x * (1 + erf(x / sqrt(2))),
    with erf from Abramowitz & Stegun 7.1.26 in the input's dtype.

    With e = exp(-x^2 / 2) and t = 1 / (1 + p |x| / sqrt(2)),
    erf(|x| / sqrt(2)) = 1 - t poly(t) e; the output is (x + |x| erf) / 2 and
    the derivative (1 + copysign(erf, x)) / 2 + x e / sqrt(2 pi).  erf's
    error of at most 1.5e-7 bounds the float64 output's error by
    7.5e-8 * max(1, |x|).  No branch: gelu(0) is exactly 0, and in float32
    the output is exactly 0 for x <= -6 and exactly x for x >= 6.  The
    forward allocates two arrays: t, in which e and then the output are
    computed once the polynomial is done with t, and erf, which the adjoint
    keeps.  The adjoint recomputes e from x by the forward's three steps.
    """
    a = _as_tensor(a)
    x = a.data
    t = np.abs(x, out=np.empty_like(x))
    t *= _ERF_P_OVER_SQRT2
    t += 1.0
    np.reciprocal(t, out=t)
    erf = np.multiply(t, -_ERF_A[0], out=np.empty_like(x))
    for coef in _ERF_A[1:]:
        erf -= coef
        erf *= t
    e = np.multiply(x, x, out=t)
    e *= -0.5
    np.exp(e, out=e)
    erf *= e
    erf += 1.0                                  # erf(|x| / sqrt(2))
    out = np.abs(x, out=t)
    out *= erf
    out += x
    out *= 0.5

    def backward(g):
        pdf = np.multiply(x, x, out=np.empty_like(x))
        pdf *= -0.5
        np.exp(pdf, out=pdf)                    # e
        pdf *= x
        pdf *= _INV_SQRT_2PI
        d = _copysign(erf, x)
        d += 1.0
        d *= 0.5
        d += pdf
        d *= g
        return (d,)

    return _record("gelu", (a,), out, backward)


def _copysign(mag: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """np.copysign(mag, sign) on the floats' bits, several times faster than
    numpy's loop: mag ^ ((mag ^ sign) & signbit) takes the sign bit from sign."""
    ints = np.int32 if mag.dtype == np.float32 else np.int64
    bits = mag.view(ints)
    out = np.bitwise_xor(bits, sign.view(ints))
    out &= np.iinfo(ints).min                   # the sign bit alone
    out ^= bits
    return out.view(mag.dtype)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_(a, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = ad.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
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
    out = ad.reshape(shape)                     # a view: the data is C-contiguous
    if out.ndim > MAX_RANK:
        raise ShapeError(f"reshape to rank {out.ndim} exceeds maximum {MAX_RANK}")

    def backward(g):
        return (g.reshape(ad.shape),)

    return _record("reshape", (a,), out, backward)


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


def take_index(a, index, axis: int) -> Tensor:
    """Select slices along an axis: an int index takes one and drops the
    axis, a 1-D array of distinct indices takes those and keeps it."""
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

    def backward(g):
        z = np.zeros_like(td)
        np.add.at(z, idx, g)
        return (z,)

    return _record("gather_rows", (table,), td[idx], backward)


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
    carry identical leading dimensions (batched products)."""
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands: {ad.shape} x {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree: {ad.shape} x {bd.shape}")

    if bd.ndim == 2:
        # Stacked rows as one 2-D GEMM: numpy runs a stacked product with a
        # transposed 2-D operand in its own loop, not in BLAS.
        def backward(g):
            g2 = g.reshape(-1, g.shape[-1])
            ga = (g2 @ bd.T).reshape(ad.shape)
            gb = ad.reshape(-1, ad.shape[-1]).T @ g2
            return ga, gb
    elif ad.shape[:-2] == bd.shape[:-2]:
        def backward(g):
            return g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g
    else:
        raise ShapeError(f"matmul: unsupported stacking: {ad.shape} x {bd.shape}")

    return _record("matmul", (a, b), ad @ bd, backward)


def linear(x, w, b, residual=None) -> Tensor:
    """x @ w (+ residual) + b as one node, for a 2-D weight w [I, O], bias b
    [O] and x [..., I]: the product is computed as ``matmul`` computes it,
    then ``residual`` (of the output's shape) and then b are added into it
    in place.  That gives the bits of matmul(x, w) + b and of
    (residual + matmul(x, w)) + b with one output array for the whole sum.
    The adjoint skips a constant x, and sums b's gradient as ``add``'s
    does."""
    w = _as_tensor(w)
    b = _as_tensor(b, like=w)
    x = _as_tensor(x, like=w)
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim < 2 or wd.ndim != 2 or bd.shape != wd.shape[1:] or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"linear needs x [..., I], w [I, O] and b [O]: "
                         f"{xd.shape}, {wd.shape}, {bd.shape}")
    out = xd @ wd
    inputs = (x, w, b)
    if residual is not None:
        residual = _as_tensor(residual, like=w)
        if residual.shape != out.shape:
            raise ShapeError(f"linear: residual {residual.shape} vs output {out.shape}")
        out += residual.data
        inputs += (residual,)
    out += bd
    x_grad = x.requires_grad

    def backward(g):
        # matmul's adjoint for a 2-D weight: each operand's as one 2-D GEMM
        g2 = g.reshape(-1, g.shape[-1])
        gx = (g2 @ wd.T).reshape(xd.shape) if x_grad else None
        gw = xd.reshape(-1, xd.shape[-1]).T @ g2
        return (gx, gw, _unbroadcast(g, bd.shape), g)[:len(inputs)]

    return _record("linear", inputs, out, backward)


def attention(q, k, v, heads: int, runs, queries: Optional[int] = None) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(W / heads)) v within each sequence,
    as one node.

    The operands are the projected q, k and v: packed [N, W] arrays of
    W-wide rows, k and v equal-shaped.  ``runs`` lists (count, length)
    pairs: ``count`` consecutive sequences of ``length`` rows each, in row
    order, covering every row of k and v.  No row attends outside its own
    sequence.  With a query-row count ``queries`` = n, q holds only the
    first min(n, length) rows of each sequence, in the same order, and so
    does the output; without it every row queries.  Each run's arrays are
    those of the composed reshape/transpose/matmul/mul/softmax chain over a
    [count, length, W] batch minus the copies, so it gives that chain's bits
    (for n >= 2 also the bits of those rows when every row queries, as a
    GEMM row does not depend on the row count from two rows on).  The one
    copy is k transposed; every other operand is a view.  The node keeps
    every run's probabilities, in one buffer."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.ndim != 2 or k.ndim != 2 or k.shape != v.shape or heads < 1
            or q.shape[1] != k.shape[1] or k.shape[1] % heads):
        raise ShapeError(f"attention needs [N, W] operands, k and v equal, with W "
                         f"divisible by {heads} heads: {q.shape}, {k.shape}, {v.shape}")
    q_lengths = [t if queries is None else min(queries, t) for _, t in runs]
    if ((queries is not None and queries < 1) or any(c < 1 or t < 1 for c, t in runs)
            or sum(c * t for c, t in runs) != k.shape[0]
            or sum(c * n for (c, _), n in zip(runs, q_lengths)) != q.shape[0]):
        raise ShapeError(f"attention needs runs of (count, length) pairs >= 1 covering "
                         f"the operands' rows, and queries >= 1 if given: got {runs} "
                         f"for {q.shape}, {k.shape} with queries={queries}")
    qd, kd, vd = q.data, k.data, v.data
    w = qd.shape[1]
    hd = w // heads
    scale = np.asarray(1.0 / np.sqrt(hd), dtype=qd.dtype)
    # A run's q and v [c, H, rows, hd] are views of the packed rows and its
    # keys [c, H, hd, t] views of one [H, hd, N] copy of k, so BLAS reads
    # every operand in place.
    kh = np.ascontiguousarray(kd.T).reshape(heads, hd, -1)

    def rows_of(z, start, c, t):                            # [c, H, t, hd]
        return z[start:start + c * t].reshape(c, t, heads, hd).transpose(0, 2, 1, 3)

    def keys_of(start, c, t):                               # [c, H, hd, t]
        return kh[:, :, start:start + c * t].reshape(heads, hd, c, t).transpose(2, 0, 1, 3)

    # Every run's scores [c, H, n, t] in one buffer, so that the scale, the
    # row maxima and exp each run once over all runs.
    q_starts = list(accumulate((c * n for (c, _), n in zip(runs, q_lengths)), initial=0))
    kv_starts = list(accumulate((c * t for c, t in runs), initial=0))
    row_counts = [heads * c * n for (c, _), n in zip(runs, q_lengths)]
    flat = np.empty(sum(r * t for r, (_, t) in zip(row_counts, runs)), dtype=qd.dtype)
    blocks, start = [], 0
    for (c, t), n, q0, kv0 in zip(runs, q_lengths, q_starts, kv_starts):
        kt = keys_of(kv0, c, t)
        if n == 1:      # a one-row product takes numpy's vector path, whose bits
            kt = np.ascontiguousarray(kt)       # depend on the keys' stride
        size = heads * c * n * t
        blocks.append(np.matmul(rows_of(qd, q0, c, n), kt,
                                out=flat[start:start + size].reshape(c, heads, n, t)))
        start += size
    flat *= scale
    # The row maxima of _softmax_inplace: a maximum is exact in any order,
    # so one reduceat over all rows gives each row's max(axis=-1).
    row_lengths = np.repeat([t for _, t in runs], row_counts)
    flat -= np.repeat(np.maximum.reduceat(flat, np.cumsum(row_lengths) - row_lengths),
                      row_lengths)
    np.exp(flat, out=flat)
    out = np.empty_like(qd)
    for (c, t), n, p, q0, kv0 in zip(runs, q_lengths, blocks, q_starts, kv_starts):
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, rows_of(vd, kv0, c, t), out=rows_of(out, q0, c, n))

    def backward(g):
        gq, gk, gv = (np.empty_like(z) for z in (qd, kd, vd))
        for q0, kv0, p in zip(q_starts, kv_starts, blocks):
            c, _, n, t = p.shape
            gc = rows_of(g, q0, c, n)
            gs = gc @ np.ascontiguousarray(rows_of(vd, kv0, c, t).swapaxes(-1, -2))
            np.matmul(p.swapaxes(-1, -2), gc, out=rows_of(gv, kv0, c, t))
            gl = _softmax_adjoint(gs, p, -1)
            gl *= scale
            np.matmul(gl, np.ascontiguousarray(rows_of(kd, kv0, c, t)), out=rows_of(gq, q0, c, n))
            gk[kv0:kv0 + c * t].reshape(c, t, heads, hd)[...] = (
                rows_of(qd, q0, c, n).swapaxes(-1, -2) @ gl).transpose(0, 3, 1, 2)
        return gq, gk, gv

    return _record("attention", (q, k, v), out, backward)


def weight_norm_linear(x, direction, scale) -> Tensor:
    """x @ w^T for the rows w[j] = scale[j] * direction[j] / ||direction[j]||,
    as one node: direction [K, D], scale [K], x [B, D] -> [B, K].

    The row norms, the coefficient scale / norm and w are computed as the
    composed sqrt/sum/mul/div chain computed them, and the product takes w's
    transposed view.  With OpenBLAS that gives the chain's bits, those of a
    product with a contiguous w^T, in less time than building w^T takes
    (a test checks the bits).  The node keeps w
    [K, D] for the adjoint: with gw = g^T x, the gradient of w,
    d(direction) = coeff * (gw - direction * <gw, direction> / norm^2) and
    d(scale) = <gw, direction> / norm, row by row.  A constant x gets no
    gradient."""
    direction = _as_tensor(direction)
    scale = _as_tensor(scale, like=direction)
    x = _as_tensor(x, like=direction)
    k, d = direction.shape
    if scale.shape != (k,):
        raise ShapeError(f"weight_norm_linear: scale {scale.shape} vs direction {direction.shape}")
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"weight_norm_linear: input {x.shape} vs direction {direction.shape}")
    xd, dd = x.data, direction.data
    norms = np.sqrt((dd * dd).sum(axis=1))                       # [K]
    coeff = (scale.data / norms).reshape(k, 1)                   # [K, 1]
    w = dd * coeff                                               # [K, D]
    x_grad = x.requires_grad

    def backward(g):
        gx = g @ w if x_grad else None
        gd = g.T @ xd                                            # of w, [K, D]
        dot = np.einsum("kd,kd->k", gd, dd)                      # of coeff, [K]
        gd -= dd * (dot / (norms * norms)).reshape(k, 1)
        gd *= coeff
        return gx, gd, dot / norms

    return _record("weight_norm_linear", (x, direction, scale), xd @ w.T, backward)


# ---------------------------------------------------------------------------
# fused normalizations and losses
# ---------------------------------------------------------------------------

def softmax(x, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """exp((x - max)/T) normalized along an axis; slices sum to one."""
    if temperature <= 0:
        raise DomainError(f"softmax temperature must be positive, got {temperature}")
    x = _as_tensor(x)
    out = x.data / temperature
    _softmax_inplace(out, axis)

    def backward(g):
        r = _softmax_adjoint(g, out, axis)
        r /= temperature
        return (r,)

    return _record("softmax", (x,), out, backward)


def _softmax_inplace(z: np.ndarray, axis: int) -> None:
    """Overwrite logits z with their softmax along an axis."""
    z -= z.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)


def _softmax_adjoint(g: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    """(g - sum(g p)) p, a new array: the logits' gradient of softmax output p."""
    r = g - (g * p).sum(axis=axis, keepdims=True)
    r *= p
    return r


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

    # A sum divided by the count is what np.mean computes, bit for bit.
    xhat = xd - xd.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    out = xhat * gd
    out += bd

    def backward(g):
        t = g * xhat
        dgain = t.reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        dx = g * gd
        np.multiply(dx, xhat, out=t)
        t_mean = t.sum(axis=-1, keepdims=True) / d
        dx -= dx.sum(axis=-1, keepdims=True) / d
        np.multiply(xhat, t_mean, out=t)
        dx -= t
        dx *= inv
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
    terms = np.asarray(np.maximum(pd, clamp))
    np.log(terms, out=terms)
    terms *= target_arr
    out = np.asarray(-terms.sum() / rows, dtype=pd.dtype)

    def backward(g):
        # clamped again: a saved copy would hold another array of pred's size
        grad = np.asarray(np.maximum(pd, clamp))
        np.divide(target_arr, grad, out=grad)
        np.negative(grad, out=grad)
        grad[~(pd >= clamp)] = 0.0          # clamped entries, NaN included
        grad *= g / rows
        return (grad,)

    return _record("soft_cross_entropy", (pred,), out, backward)


def soft_cross_entropy_logits(target, logits, temperature: float) -> Tensor:
    """-sum(target * log_softmax(logits / temperature)) along the last axis,
    mean over the rows of a rank >= 2 input, as one node: the cross entropy
    from target to the softmax of the logits, with no clamp.

    The target is consumed as plain values, as soft_cross_entropy consumes
    it.  The node keeps each row's log partition, not the probabilities p:
    its adjoint recomputes p from the logits and returns
    (p * rowsum(target) - target) / (rows * temperature), one array of the
    logits' size."""
    if not temperature > 0:
        raise DomainError(f"cross entropy temperature must be positive, got {temperature}")
    logits = _as_tensor(logits)
    ld = logits.data
    target_arr = np.asarray(target, dtype=ld.dtype)
    if ld.ndim < 1 or target_arr.shape != ld.shape:
        raise ShapeError(f"soft_cross_entropy_logits: target {target_arr.shape} vs "
                         f"logits {ld.shape}")
    rows = math.prod(ld.shape[:-1])
    z = ld / temperature
    shift = z.max(axis=-1, keepdims=True)
    z -= shift
    dots = np.einsum("...k,...k->...", target_arr, z)      # no temporary of z's size
    np.exp(z, out=z)
    lse = np.log(z.sum(axis=-1, keepdims=True))
    shift += lse                                # the log partition of logits / T
    mass = target_arr.sum(axis=-1, keepdims=True)
    # -sum(target * (z - lse)) as two sums of non-negative terms for target >= 0
    out = np.asarray(((mass * lse).sum() - dots.sum()) / rows, dtype=ld.dtype)

    def backward(g):
        grad = ld / temperature
        grad -= shift
        np.exp(grad, out=grad)                  # p
        grad *= mass
        grad -= target_arr
        grad *= g / (rows * temperature)
        return (grad,)

    return _record("soft_cross_entropy_logits", (logits,), out, backward)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(tape: Tape, loss: Tensor, params: Iterable[Tensor]) -> list[np.ndarray]:
    """Reverse sweep over the tape, seeding d(loss) = 1.

    Returns one gradient array per tensor in ``params``, in their order; a
    tensor that the loss does not reach gets zeros of matching shape.

    The sweep consumes the tape: it pops each node as it runs that node's
    adjoint, so each array the node saved is freed once nothing else holds
    it, and ``tape.nodes`` is empty afterwards.  Sweeping a swept tape raises
    ContractError.
    """
    if tape.swept:
        raise ContractError("backward on a tape that was already swept")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape.swept = True
    nodes = tape.nodes
    # keyed by the tensors, which hash by identity and stay alive as keys
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}

    while nodes:
        node = nodes.pop()
        gout = grads.pop(node.output, None)
        if gout is None:
            continue
        input_grads = node.backward_fn(gout)
        for t, g in zip(node.inputs, input_grads):
            if g is None or not t.requires_grad:
                continue
            acc = grads.get(t)
            grads[t] = g if acc is None else acc + g

    return [grads[p] if p in grads else np.zeros_like(p.data) for p in params]

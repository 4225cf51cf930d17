"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value in the computation is a `Tensor` wrapping a numpy array. Ops
eagerly compute forward values, validate finiteness, and (when autograd is
enabled) remember their parents plus a backward rule. `backward()` walks the
recorded graph in reverse topological order and accumulates gradients into
leaf tensors that were created with `requires_grad=True`.

Conventions:
  - all data is float64, row-major;
  - gradients never flow through integer index arrays;
  - op outputs are treated as immutable (only `.grad` mutates afterwards).
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from contextlib import contextmanager

import numpy as np

_node_counter = itertools.count()
_grad_enabled = True

SLOPE = 0.2  # of every leaky ReLU (TGN's and FGAT's MLPs, FGAT's attention), as in GAT


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf."""


class MissingGradError(RuntimeError):
    """An optimizer step ran before gradients were populated."""


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / memory replay)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _check_finite(values: np.ndarray, op: str) -> None:
    # a sum is finite when every term is; only a non-finite sum (which may
    # also be an overflow of finite terms) needs the elementwise test
    if not math.isfinite(np.add.reduce(values, axis=None)) and not np.isfinite(values).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


# ops whose outputs only copy values of their inputs: a non-finite value
# among them was made by an earlier op, or sits in a parameter changed in
# place, and the next op that computes with it raises
_COPY_OPS = frozenset({"gather", "concat", "reshape", "scatter_rows"})


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "node_id")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, _op="leaf"):
        arr = np.asarray(data, dtype=np.float64)
        if _op not in _COPY_OPS:
            _check_finite(arr, _op)
        self.data = arr
        self.grad = None
        self.node_id = next(_node_counter)
        if _grad_enabled:
            self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
            self._parents = _parents if self.requires_grad else ()
            self._backward = _backward if self.requires_grad else None
        else:
            self.requires_grad = False
            self._parents = ()
            self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __neg__(self):
        return neg(self)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


def parameter(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise / arithmetic ----------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out_data, _parents=(a, b), _backward=backward, _op="add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor(out_data, _parents=(a, b), _backward=backward, _op="sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return Tensor(out_data, _parents=(a, b), _backward=backward, _op="mul")


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.data, _parents=(a,), _backward=lambda g: (-g,), _op="neg")


def sigmoid(a: Tensor) -> Tensor:
    # computed via tanh for stability at large |x|
    out_data = 0.5 * (np.tanh(0.5 * a.data) + 1.0)

    def backward(g):
        return (g * out_data * (1.0 - out_data),)

    return Tensor(out_data, _parents=(a,), _backward=backward, _op="sigmoid")


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out_data * out_data),)

    return Tensor(out_data, _parents=(a,), _backward=backward, _op="tanh")


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return Tensor(out_data, _parents=(a,), _backward=backward, _op="log")


def leaky_relu(a: Tensor) -> Tensor:
    out_data, backward = _leaky_relu(a.data)
    return Tensor(out_data, _parents=(a,), _backward=lambda g: (backward(g),), _op="leaky_relu")


def _leaky_relu(x: np.ndarray):
    """`leaky_relu`'s values and its map from their gradient to `x`'s. As
    `SLOPE` is in [0, 1], the larger of x and SLOPE*x is the selected one,
    and SLOPE + mask*(1 - SLOPE) is exactly 1.0 or SLOPE, so both are built
    without a data-dependent branch per element."""
    mask = x > 0.0
    out = SLOPE * x
    np.maximum(x, out, out=out)

    def backward(g):
        scale = mask * (1.0 - SLOPE)
        scale += SLOPE
        scale *= g
        return scale

    return out, backward


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    out_data = np.clip(a.data, lo, hi)
    pass_through = (a.data > lo) & (a.data < hi)

    def backward(g):
        return (g * pass_through,)

    return Tensor(out_data, _parents=(a,), _backward=backward, _op="clip")


# -- linear algebra / shape ---------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` for a 2-D `x` and a 1-D bias `b`, as one op.

    Bytes equal a product op followed by `add`, forward and backward, with
    one tape node and no intermediate product kept. An output of width 1 is
    the exception: its forward is a multiply and a sum per row, since numpy
    runs that product through a matrix-vector kernel whose bytes for one
    row depend on the rows around it (OpenBLAS 0.3.31, x86-64), and a row
    must score the same in any batch.
    """
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"linear expects (n, {w.shape[0]}) input, got {x.shape}")
    if w.shape[1] == 1:
        out_data = np.sum(x.data * w.data.T, axis=1, keepdims=True)
    else:
        out_data = _matmul(x.data, w.data)
    out_data += b.data

    def backward(g):
        gx = _matmul(g, w.data.T) if x.requires_grad else None
        gw = _matmul(x.data.T, g) if w.requires_grad else None
        gb = g.sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return Tensor(out_data, _parents=(x, w, b), _backward=backward, _op="linear")


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`x @ y`, with an inner dimension of 1 taken as a broadcast multiply.

    That outer product runs about twice as fast as a BLAS call. BLAS adds
    each product onto a zeroed accumulator, which turns -0.0 into +0.0;
    adding 0.0 does the same, so the bytes agree.
    """
    if x.shape[1] != 1:
        return x @ y
    out = x * y
    out += 0.0
    return out


def tensor_sum(a: Tensor, axis=None) -> Tensor:
    out_data = a.data.sum(axis=axis)

    def backward(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return Tensor(out_data, _parents=(a,), _backward=backward, _op="sum")


def tensor_mean(a: Tensor) -> Tensor:
    return tensor_sum(a) * (1.0 / a.size)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return Tensor(out_data, _parents=(a,), _backward=backward, _op="reshape")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("concat of zero tensors")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = list(itertools.accumulate((t.shape[axis] for t in tensors), initial=0))

    def backward(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(tensors)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            # a contiguous copy: a strided column block slows every matmul
            # that consumes it several-fold
            grads.append(np.ascontiguousarray(g[tuple(slicer)]))
        return tuple(grads)

    return Tensor(out_data, _parents=tensors, _backward=backward, _op="concat")


def _index_add(idx: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """`out[k]` = sum of `values[i]` over all `i` with `idx[i] == k`, zero
    where no `i` matches; `out` has `n` rows. See `_index_plan`."""
    return _index_plan(idx, n, math.prod(values.shape[1:]))(values)


def _index_plan(idx: np.ndarray, n: int, width: int):
    """The function that sums (len(idx), width) values as `_index_add` does:
    the range check and the flat (row, column) index are made once, so sums
    over the same rows can share them.

    Each row is added in input order onto an initial 0.0, exactly as
    `np.add.at` on a zero array does, so results are bytewise the same.
    `np.bincount` over the flat index keeps that order and runs several
    times faster.
    """
    if idx.size:
        lo, hi = int(idx.min()), int(idx.max())
        if lo < -n or hi >= n:
            raise IndexError(f"row index out of range for {n} rows")
        if lo < 0:
            idx = np.where(idx < 0, idx + n, idx)
    flat = idx if width == 1 else (idx[:, None] * width + np.arange(width)).ravel()

    def apply(values: np.ndarray) -> np.ndarray:
        sums = np.bincount(flat, weights=values.ravel(), minlength=n * width)
        return sums.reshape((n,) + values.shape[1:])

    return apply


def gather(a: Tensor, idx) -> Tensor:
    """Select rows `a[idx]` along axis 0.

    `idx` is any integer array (repeats allowed, negative entries wrap as in
    numpy) or a `slice`, which selects a view without building an index
    array. Backward sums the incoming gradient rows into `a`'s rows in input
    order, bytewise the same as `np.add.at` on a zero array.
    """
    if isinstance(idx, slice):
        out_data = a.data[idx]
    else:
        idx = np.asarray(idx, dtype=np.int64)
        out_data = a.data.take(idx, axis=0)  # a[idx], but faster

    def backward(g):
        if isinstance(idx, slice):
            ga = np.zeros_like(a.data)
            ga[idx] += g
            return (ga,)
        return (_index_add(idx.ravel(), g, a.shape[0]),)

    return Tensor(out_data, _parents=(a,), _backward=backward, _op="gather")


def segment_sum(a: Tensor, seg_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of `a` into `num_segments` buckets given per-row segment ids.

    Each bucket adds its rows in their given order onto 0.0, bytewise the
    same as a sequential loop or `np.add.at`, so callers that need bitwise
    determinism must present rows in a canonical order. `seg_ids` is an
    integer array; slices are not accepted.
    """
    seg_ids = np.asarray(seg_ids, dtype=np.int64)
    out_data = _index_add(seg_ids, a.data, num_segments)

    def backward(g):
        return (g.take(seg_ids, axis=0),)

    return Tensor(out_data, _parents=(a,), _backward=backward, _op="segment_sum")


def _segment_max_rows(values: np.ndarray, seg_ids: np.ndarray) -> np.ndarray:
    """Per column, the max of each row's segment, repeated to `values`' rows.

    `seg_ids` must be sorted; the max of a segment is taken over its own
    rows only, so it is a constant shift that keeps a softmax's exp in range.
    """
    step = np.diff(seg_ids, prepend=seg_ids[:1] - 1)  # the first row starts a segment
    if step.size and step.min() < 0:
        raise ValueError("segment softmax requires sorted segment ids")
    starts = np.flatnonzero(step > 0)  # a boolean scan is several times faster
    top = np.maximum.reduceat(values, starts, axis=0)
    return np.repeat(top, np.diff(starts, append=len(seg_ids)), axis=0)


def _segment_softmax(logits: np.ndarray, seg_ids: np.ndarray, seg_sum):
    """Softmax of `logits`' rows within each segment of the sorted `seg_ids`,
    per column, and the map from its gradient to `logits`'.

    `seg_sum` sums arrays shaped like `logits` per segment, as an
    `_index_plan` over `seg_ids` does. Each segment's max is subtracted as a
    constant; the backward rule is `alpha * (g - seg_sum(alpha * g)[seg_ids])`.
    """
    e = np.exp(logits - _segment_max_rows(logits, seg_ids))
    alpha = e / seg_sum(e).take(seg_ids, axis=0)

    def backward(g):
        return alpha * (g - seg_sum(alpha * g).take(seg_ids, axis=0))

    return alpha, backward


def scatter_rows(base: Tensor, idx, rows: Tensor) -> Tensor:
    """Copy of `base` with `out[idx] = rows`.

    `idx` is an integer array that must not repeat. Each output row comes
    from exactly one input, so nothing is accumulated: forward and backward
    copy values unchanged.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if len(np.unique(idx)) != len(idx):
        raise ValueError("scatter_rows requires unique row indices")
    out_data = base.data.copy()
    out_data[idx] = rows.data

    def backward(g):
        g_base = g.copy()
        g_base[idx] = 0.0
        return g_base, g[idx]

    return Tensor(out_data, _parents=(base, rows), _backward=backward, _op="scatter_rows")


def bce_loss(prob: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy; probabilities clamped to [1e-7, 1-1e-7]."""
    y = np.asarray(labels, dtype=np.float64)
    p = clip(prob, 1e-7, 1.0 - 1e-7)
    term = Tensor(y) * log(p) + Tensor(1.0 - y) * log(Tensor(np.ones_like(y)) - p)
    return -tensor_mean(term)


# -- backward pass ------------------------------------------------------------


def backward(loss: Tensor, params=None) -> None:
    """Populate gradients of all reachable `requires_grad` leaves of `loss`.

    `params`, when given, is an iterable of parameter tensors; any of them
    left unreached by the graph walk gets an all-zero gradient so optimizer
    steps see a complete gradient set.
    """
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    # reversed(topo) visits every consumer before its parents, so a node's
    # dict entry is complete by the time it is popped
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.grad is not None:
                node.grad += g
            elif g.shape != node.data.shape:
                raise ValueError(f"gradient of shape {g.shape} for a leaf of shape {node.data.shape}")
            else:
                node.grad = g + 0.0  # a fresh array, and -0.0 becomes +0.0 as under a zero fill
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node._parents, parent_grads):
            if not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg

    if params is not None:
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_pages() -> None:
    """Let the C heap keep the pages a freed tape held, once per process.

    A training step builds a tape of several MB and frees it when the step
    returns. By default glibc gives that memory back to the OS (trimming
    the heap top, unmapping large blocks) and the next step's tape faults it
    in again, page by page. A 256 MiB trim threshold keeps freed memory in
    the heap, and a 32 MiB mmap threshold, the largest 64-bit glibc accepts,
    serves every tape array from the heap rather than from its own mapping.
    The second setting is needed: a fixed trim threshold turns off glibc's
    dynamic mmap threshold, which would leave every array of 128 KiB or more
    in a mapping of its own, faulted in on each allocation.

    Freed memory then stays with the process until it exits. Values are
    unchanged. Does nothing where the C library has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to look in
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)

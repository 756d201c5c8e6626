"""Minimal reverse-mode differentiation over numpy arrays.

Exactly the primitive set the sequence model needs: matmul, broadcast
add/mul, relu, sigmoid, clamped log, masked row-softmax, layer norm, L2
normalization, dropout, 2-D convolution, rectify-and-pool (relu, then 2x2
average pooling; its vjp builds the mask), row gather/scatter,
reshape/transpose and scalar reductions. Values are numpy arrays (float64
by default; float32 permitted for training). A Node records its forward
value plus vector-Jacobian closures into its parents; it needs a gradient
when it is a ``param`` or when any parent needs one. ``backward`` pops
nodes from a max-heap on creation order, pushing each when its first adjoint
contribution arrives: reverse creation order is always a valid reverse
topological order because primitives only consume existing nodes. Image
arrays are NCHW-shaped, channels-last in memory where ``conv2d`` and
``avg_pool2`` made them; no value depends on layout. An adjoint keeps the
dtype its vjp yields and is never written in place, so it may be a view.
``conv2d`` gathers GEMM rows through a cached tap index. Its input vjp runs
one GEMM per image block of 16 MiB of columns or more, which BLAS gives the
whole batch's kernel, so no byte changes (small blocks change bytes); its
weight vjp sums over images and is one GEMM. A vjp casts a float32 operand of
a float64 adjoint first (``_cast``), into the same operand numpy's implicit
mixed ``@`` makes, so no byte changes.
``conv2d``'s weight vjp rebuilds its rows from the input, in the adjoint's
dtype. All GEMM rows live in one reused buffer (``_gemm_rows``), which is not
re-entrant and lives until ``release_gemm_rows``. ``backward`` keeps adjoints
only on leaves (params); ``gradients`` reads them out by name. A broadcasting
primitive's ``ShapeError`` is numpy's own broadcast error, renamed for the op.
No higher-order derivatives.
"""
from __future__ import annotations

import functools
import heapq
import itertools
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

MASK_VALUE = -1e9          # additive attention mask for excluded positions
_MASKED_BELOW = -1e8       # entries at or below this are treated as fully excluded
LOG_CLAMP = 1e-12          # floor for log arguments
LAYERNORM_EPS = 1e-5

_order_counter = itertools.count()


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "adjoint", "op", "needs_grad", "order", "_vjps")

    def __init__(self, value: np.ndarray, op: str,
                 vjps: Sequence[tuple["Node", Callable[[np.ndarray], np.ndarray]]] = (),
                 needs_grad: bool = False):
        self.value = value
        self.adjoint = None
        self.op = op
        self._vjps = tuple(vjps)
        self.needs_grad = needs_grad or any(parent.needs_grad for parent, _ in self._vjps)
        self.order = next(_order_counter)

    @property
    def shape(self):
        return self.value.shape

    # operator sugar; non-Node operands become constants
    def __add__(self, other):
        return add(self, as_node(other))

    def __sub__(self, other):
        return add(self, scale(as_node(other), -1.0))

    def __rsub__(self, other):
        return add(as_node(other), scale(self, -1.0))

    def __mul__(self, other):
        return mul(self, as_node(other))

    def __neg__(self):
        return scale(self, -1.0)


def constant(value) -> Node:
    return Node(np.asarray(value), "const")


def param(value: np.ndarray, name: str = "param") -> Node:
    return Node(np.asarray(value), name, needs_grad=True)


def as_node(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _unbroadcast(adj: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an adjoint down to `shape` after numpy broadcasting."""
    if adj.shape == shape:
        return adj
    extra = adj.ndim - len(shape)
    if extra > 0:
        adj = adj.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (a, s) in enumerate(zip(adj.shape, shape)) if s == 1 and a != 1)
    if axes:
        adj = adj.sum(axis=axes, keepdims=True)
    return adj.reshape(shape)


def _cast(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``a`` as an implicit mixed ``a @ g`` hands it to BLAS: itself, or a
    C-ordered promoted copy."""
    dt = np.result_type(a, g)
    return a if a.dtype == dt else a.astype(dt, order="C")


def add(a: Node, b: Node) -> Node:
    try:
        out = a.value + b.value
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    return Node(out, "add", [
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(g, b.value.shape)),
    ])


def mul(a: Node, b: Node) -> Node:
    try:
        out = a.value * b.value
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    return Node(out, "mul", [
        (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
        (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
    ])


def scale(x: Node, k: float) -> Node:
    k = float(k)
    return Node(x.value * k, "scale", [(x, lambda g: g * k)])


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.shape} @ {b.shape}")
    if a.value.shape[-1] != b.value.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = a.value @ b.value
    return Node(out, "matmul", [
        (a, lambda g: _unbroadcast(g @ _cast(np.swapaxes(b.value, -1, -2), g), a.value.shape)),
        (b, lambda g: _unbroadcast(_cast(np.swapaxes(a.value, -1, -2), g) @ g, b.value.shape)),
    ])


def relu(x: Node) -> Node:
    pos = x.value > 0
    return Node(np.maximum(x.value, 0), "relu", [(x, lambda g: g * pos)])


def sigmoid(x: Node) -> Node:
    v = x.value
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return Node(out, "sigmoid", [(x, lambda g: g * out * (1.0 - out))])


def log(x: Node) -> Node:
    """Natural log with arguments clamped at LOG_CLAMP; zero gradient when clamped."""
    clamped = np.maximum(x.value, LOG_CLAMP)
    live = x.value > LOG_CLAMP
    return Node(np.log(clamped), "log", [(x, lambda g: np.where(live, g / clamped, 0.0))])


def sum_all(x: Node) -> Node:
    val = np.asarray(x.value.sum())
    return Node(val, "sum", [(x, lambda g: np.broadcast_to(g, x.value.shape).copy())])


def reshape(x: Node, shape) -> Node:
    orig = x.value.shape
    return Node(x.value.reshape(shape), "reshape", [(x, lambda g: g.reshape(orig))])


def transpose(x: Node, axes) -> Node:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return Node(x.value.transpose(axes), "transpose", [(x, lambda g: g.transpose(inv))])


def gather_rows(x: Node, idx: np.ndarray) -> Node:
    """Select rows along the first axis; backward scatter-adds into zeros."""
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        dx = np.zeros_like(x.value)
        np.add.at(dx, idx, g)
        return dx

    return Node(x.value[idx], "gather_rows", [(x, vjp)])


def scatter_rows(x: Node, idx: np.ndarray, n_rows: int) -> Node:
    """Place rows of x at positions idx of a zero matrix with n_rows rows."""
    idx = np.asarray(idx, dtype=np.intp)
    if len(idx) != x.value.shape[0]:
        raise ShapeError(f"scatter_rows: {len(idx)} indices for {x.value.shape[0]} rows")
    out = np.zeros((n_rows,) + x.value.shape[1:], dtype=x.value.dtype)
    out[idx] = x.value
    return Node(out, "scatter_rows", [(x, lambda g: g[idx])])


def masked_softmax(scores: Node, additive_mask: np.ndarray) -> Node:
    """Row softmax over the last axis of (scores + additive_mask).

    Mask entries at or below the exclusion threshold contribute exactly 0
    to the output and receive exactly 0 gradient; fully-masked rows yield
    all-zero rows.
    """
    try:
        z = scores.value + additive_mask
    except ValueError:
        raise ShapeError(f"masked_softmax: mask {additive_mask.shape} does not broadcast"
                         f" to {scores.shape}") from None
    valid = np.broadcast_to(additive_mask > _MASKED_BELOW, z.shape)
    zmax = np.where(valid, z, -np.inf).max(axis=-1, keepdims=True)
    zmax = np.where(np.isfinite(zmax), zmax, 0.0)
    e = np.where(valid, np.exp(z - zmax), 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    out = np.where(denom > 0.0, e / np.where(denom > 0.0, denom, 1.0), 0.0)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return out * (g - inner)

    return Node(out, "masked_softmax", [(scores, vjp)])


def layer_norm(x: Node, gamma: Node, beta: Node) -> Node:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    f = x.value.shape[-1]
    if gamma.value.shape != (f,) or beta.value.shape != (f,):
        raise ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} vs feature {f}")
    mu = x.value.mean(axis=-1, keepdims=True)
    xc = x.value - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    y = xc * inv
    out = y * gamma.value + beta.value

    def vjp_x(g):
        dy = g * gamma.value
        return inv * (dy - dy.mean(axis=-1, keepdims=True)
                      - y * (dy * y).mean(axis=-1, keepdims=True))

    lead = tuple(range(x.value.ndim - 1))
    return Node(out, "layer_norm", [
        (x, vjp_x),
        (gamma, lambda g: (g * y).sum(axis=lead)),
        (beta, lambda g: g.sum(axis=lead)),
    ])


def l2_normalize(x: Node, floor: float) -> Node:
    """Scale each vector along the last axis to unit length.

    Vectors shorter than ``floor`` are divided by ``floor`` instead, so an
    all-zero vector maps to zero with a finite gradient.
    """
    norm = np.sqrt((x.value * x.value).sum(axis=-1, keepdims=True))
    live = norm > floor
    denom = np.where(live, norm, floor)
    y = x.value / denom

    def vjp(g):
        radial = np.where(live, y * (g * y).sum(axis=-1, keepdims=True), 0.0)
        return (g - radial) / denom

    return Node(y, "l2_normalize", [(x, vjp)])


def dropout(x: Node, rate: float, rng: np.random.Generator, train: bool) -> Node:
    """Inverted dropout: scales kept units by 1/(1-rate) so eval is a pass-through."""
    if not train or rate <= 0.0:
        return x
    keep = (rng.random(x.value.shape) >= rate).astype(x.value.dtype) / (1.0 - rate)
    return Node(x.value * keep, "dropout", [(x, lambda g: g * keep)])


@functools.lru_cache(maxsize=64)
def _taps(c: int, h: int, w: int, kh: int, kw: int, pad: int):
    """Flat channels-last index of each (c, kh, kw) tap of each output pixel;
    a padding tap points at the zero ``_im2col`` appends to an image."""
    oh, ow = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    i = (np.arange(oh)[:, None] + np.arange(kh) - pad)[:, None, None, :, None]
    j = (np.arange(ow)[:, None] + np.arange(kw) - pad)[None, :, None, None, :]
    idx = np.where((i >= 0) & (i < h) & (j >= 0) & (j < w),
                   (i * w + j) * c + np.arange(c)[:, None, None], h * w * c)
    idx.flags.writeable = False
    return idx.reshape(oh * ow, c * kh * kw), oh, ow


_rows_buffer = np.empty(0, np.uint8)
_VJP_X_BLOCK_BYTES = 16 << 20     # columns per image block of conv2d's vjp_x, at least


def _gemm_rows(shape: tuple, dtype) -> np.ndarray:
    """A C-ordered ``shape`` array on the one module-level buffer of GEMM rows,
    which only grows: reusing touched pages spares a fresh mapping's page
    faults and zero-fill per gather. Not re-entrant: the next call overwrites
    the array, so a caller uses it as one GEMM operand and keeps no view."""
    global _rows_buffer
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    if _rows_buffer.nbytes < nbytes:
        release_gemm_rows()                           # free the old one first
        _rows_buffer = np.empty(nbytes, np.uint8)
    return _rows_buffer[:nbytes].view(dtype).reshape(shape)


def release_gemm_rows() -> None:
    """Free the GEMM-row buffer, so that it adds nothing to the memory peak of
    work that follows a pass of convolutions; the next gather grows it anew."""
    global _rows_buffer
    _rows_buffer = np.empty(0, np.uint8)


def _im2col(x: np.ndarray, kh: int, kw: int, pad: int):
    """GEMM rows (n*oh*ow, c*kh*kw) of x's zero-padded windows, one gather."""
    n, c, h, w = x.shape
    idx, oh, ow = _taps(c, h, w, kh, kw, pad)
    flat = np.concatenate([x.transpose(0, 2, 3, 1).reshape(n, -1), np.zeros((n, 1), x.dtype)], 1)
    cols = _gemm_rows((n,) + idx.shape, x.dtype)
    np.take(flat, idx, axis=1, out=cols, mode="wrap")   # in range: skips the bounds check
    return cols.reshape(n * oh * ow, c * kh * kw), oh, ow


def conv2d(x: Node, w: Node, b: Node, pad: int = 1) -> Node:
    """Stride-1 2-D convolution, weight (F, C, kh, kw). The output is an NCHW
    view of channels-last GEMM rows; adjoints take the GEMMs' dtype. Rows are
    gathered by a cached tap index and vjps ``_cast`` first. BLAS picks its
    kernel by size, so small blocks of a GEMM change bytes. ``vjp_x`` splits
    the images into ``column bytes // _VJP_X_BLOCK_BYTES`` near-equal blocks
    (1 to n; 1 for one input channel) and writes each block's GEMM into one
    channels-last dx: rounding down keeps every block at 16 MiB of columns or
    more, far above OpenBLAS's small-matrix sizes, so dx has the one GEMM's
    bytes. ``vjp_w``'s GEMM sums over images, so it stays one. It rebuilds its
    rows from ``x``: the transposed gather when no cast is due, else one
    C-ordered copy of the windows of the cast, padded x, the operand a mixed
    ``cols.T @ gmat`` makes. All GEMMs' rows go to the reused, non-re-entrant
    ``_gemm_rows``; no output or adjoint shares it.
    The bias adjoint ``einsum("nchw->c", g)`` has ``g.sum(axis=(0, 2, 3))``'s
    bytes on a channels-last g, the layout ``avg_pool2``'s vjp writes, in a
    fraction of its time; on a C-contiguous NCHW g it sums in another order."""
    n, c, h, ww = x.value.shape
    f, cw, kh, kw = w.value.shape
    if cw != c:
        raise ShapeError(f"conv2d: input channels {c} vs weight channels {cw}")
    if b.value.shape != (f,):
        raise ShapeError(f"conv2d: bias shape {b.value.shape} vs {f} filters")
    cols, oh, ow = _im2col(x.value, kh, kw, pad)
    wmat = w.value.reshape(f, -1)
    out = cols @ wmat.T
    out += b.value
    out = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    def vjp_x(g):
        # full correlation with spatially flipped, channel-swapped weights
        wflip = _cast(w.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1).T, g)
        dx = np.empty((n, h, ww, c), np.result_type(g, wflip))
        # one channel makes it a matrix-vector product, whose threaded BLAS
        # kernel rounds a row by its offset in the call: no blocks then
        k = 1 if c == 1 else min(n, max(1, n * h * ww * f * kh * kw * g.itemsize
                                        // _VJP_X_BLOCK_BYTES))
        for gb, dxb in zip(np.array_split(g, k), np.array_split(dx, k)):
            np.matmul(_im2col(gb, kh, kw, kh - 1 - pad)[0], wflip, out=dxb.reshape(-1, c))
        return dx.transpose(0, 3, 1, 2)

    def vjp_w(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(-1, f)
        dt = np.result_type(x.value, gmat)
        if dt == x.value.dtype:
            rows = _im2col(x.value, kh, kw, pad)[0].T
        else:
            xp = np.zeros((n, c, h + 2 * pad, ww + 2 * pad), dt)
            xp[:, :, pad:pad + h, pad:pad + ww] = x.value
            windows = sliding_window_view(xp, (kh, kw), axis=(2, 3)).transpose(1, 4, 5, 0, 2, 3)
            rows = _gemm_rows(windows.shape, dt)
            np.copyto(rows, windows)
            rows = rows.reshape(c * kh * kw, -1)
        return (rows @ gmat).T.reshape(f, c, kh, kw)

    return Node(out, "conv2d", [
        (x, vjp_x),
        (w, vjp_w),
        (b, lambda g: np.einsum("nchw->c", g)),
    ])


def avg_pool2(x: Node) -> Node:
    """Relu, then 2x2 average pooling, stride 2, even spatial dims: ((max(x00, 0)
    + max(x01, 0)) + (max(x10, 0) + max(x11, 0))) / 4 in x's layout. No rectified
    copy or mask is kept: the vjp builds the mask from x when it runs and writes
    the input adjoint channels-last, in g's dtype."""
    n, c, h, w = x.value.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2: spatial dims must be even, got {(h, w)}")
    out = np.maximum(x.value[:, :, ::2, ::2], 0)
    part = np.maximum(x.value[:, :, ::2, 1::2], 0)
    out += part
    np.maximum(x.value[:, :, 1::2, ::2], 0, out=part)
    part += np.maximum(x.value[:, :, 1::2, 1::2], 0)
    out += part
    out *= 0.25

    def vjp(g):
        blocks = (n, h // 2, 2, w // 2, 2, c)
        q = (g * 0.25).transpose(0, 2, 3, 1)[:, :, None, :, None]
        mask = (x.value > 0).transpose(0, 2, 3, 1).reshape(blocks)
        dx = np.empty((n, h, w, c), g.dtype)
        np.multiply(np.broadcast_to(q, blocks), mask, out=dx.reshape(blocks))
        return dx.transpose(0, 3, 1, 2)

    return Node(out, "avg_pool2", [(x, vjp)])


def backward(loss: Node) -> None:
    """Populate adjoints of every grad-requiring leaf reachable from a scalar
    loss. An interior node's adjoint is dropped once its vjps have run, so
    only leaves (params) keep theirs."""
    if loss.value.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    loss.adjoint = np.ones_like(loss.value)
    # a node joins with its first contribution, from a later-created consumer, so
    # the pops run in reverse creation order and every consumer has sent its share
    heap = [(-loss.order, loss)]
    while heap:
        node = heapq.heappop(heap)[1]
        for parent, vjp in node._vjps:
            if parent.needs_grad and parent.adjoint is None:
                parent.adjoint = vjp(node.adjoint)
                heapq.heappush(heap, (-parent.order, parent))
            elif parent.needs_grad:
                parent.adjoint = parent.adjoint + vjp(node.adjoint)
        if node._vjps:
            node.adjoint = None


def gradients(loss: Node, leaves: dict) -> dict:
    """``backward`` from ``loss``, then each leaf's adjoint by name, zeros where none arrived."""
    backward(loss)
    return {name: leaf.adjoint if leaf.adjoint is not None else np.zeros_like(leaf.value)
            for name, leaf in leaves.items()}


def grad_check(f, params: dict, seed: int = 0, n_coords: int = 30,
               step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a dict of parameter arrays to a scalar loss Node and must be
    deterministic (dropout disabled or seed-pinned). Coordinates are sampled
    across all tensors; error is |a - n| / max(1e-8, |a| + |n|).
    """
    rng = np.random.default_rng(seed)
    out = f(params)
    if not (isinstance(out, tuple) and len(out) == 2):
        raise ValueError("f must return (loss_node, leaf_nodes_by_name)")
    analytic = gradients(*out)

    names = sorted(params)
    sizes = np.array([params[k].size for k in names], dtype=float)
    worst = 0.0
    for _ in range(n_coords):
        k = names[rng.choice(len(names), p=sizes / sizes.sum())]
        flat = int(rng.integers(params[k].size))
        probe = {n: v.copy() for n, v in params.items()}
        probe[k].flat[flat] += step
        up = float(f(probe)[0].value)
        probe[k].flat[flat] -= 2 * step
        down = float(f(probe)[0].value)
        numeric = (up - down) / (2 * step)
        a = float(analytic[k].flat[flat])
        err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, err)
    return worst

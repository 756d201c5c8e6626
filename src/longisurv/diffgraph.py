"""Minimal reverse-mode differentiation over numpy arrays.

Exactly the primitive set the sequence model needs: matmul, broadcast
add/mul, relu, sigmoid, clamped log, masked row-softmax, layer norm, L2
normalization, dropout, 2-D convolution, 2x2 average pooling, row
gather/scatter, reshape/transpose and scalar reductions. Values are numpy arrays (float64
by default; float32 permitted for training). A Node records its forward
value plus vector-Jacobian closures into its parents; ``backward`` walks
nodes in reverse creation order, which is always a valid reverse
topological order because primitives only consume existing nodes.

No broadcasting beyond what the model needs, no higher-order derivatives.
"""
from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

MASK_VALUE = -1e9          # additive attention mask for excluded positions
_MASKED_BELOW = -1e8       # entries at or below this are treated as fully excluded
LOG_CLAMP = 1e-12          # floor for log arguments
LAYERNORM_EPS = 1e-5

_order_counter = itertools.count()


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "adjoint", "op", "needs_grad", "order", "_vjps")

    def __init__(self, value: np.ndarray, op: str, needs_grad: bool,
                 vjps: Sequence[tuple["Node", Callable[[np.ndarray], np.ndarray]]] = ()):
        self.value = value
        self.adjoint = None
        self.op = op
        self.needs_grad = needs_grad
        self.order = next(_order_counter)
        self._vjps = tuple(vjps)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape}, grad={self.needs_grad})"

    # operator sugar; non-Node operands become constants
    def __add__(self, other):
        return add(self, as_node(other))

    def __radd__(self, other):
        return add(as_node(other), self)

    def __sub__(self, other):
        return add(self, scale(as_node(other), -1.0))

    def __rsub__(self, other):
        return add(as_node(other), scale(self, -1.0))

    def __mul__(self, other):
        return mul(self, as_node(other))

    def __rmul__(self, other):
        return mul(as_node(other), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, as_node(other))


def constant(value) -> Node:
    return Node(np.asarray(value), "const", needs_grad=False)


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


def _binary_shapes_ok(a: np.ndarray, b: np.ndarray) -> bool:
    try:
        np.broadcast_shapes(a.shape, b.shape)
        return True
    except ValueError:
        return False


def add(a: Node, b: Node) -> Node:
    if not _binary_shapes_ok(a.value, b.value):
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    out = a.value + b.value
    return Node(out, "add", a.needs_grad or b.needs_grad, [
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(g, b.value.shape)),
    ])


def mul(a: Node, b: Node) -> Node:
    if not _binary_shapes_ok(a.value, b.value):
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    out = a.value * b.value
    return Node(out, "mul", a.needs_grad or b.needs_grad, [
        (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
        (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
    ])


def scale(x: Node, k: float) -> Node:
    k = float(k)
    return Node(x.value * k, "scale", x.needs_grad, [(x, lambda g: g * k)])


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.shape} @ {b.shape}")
    if a.value.shape[-1] != b.value.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = a.value @ b.value
    return Node(out, "matmul", a.needs_grad or b.needs_grad, [
        (a, lambda g: _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.value.shape)),
        (b, lambda g: _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.value.shape)),
    ])


def relu(x: Node) -> Node:
    pos = x.value > 0
    return Node(np.where(pos, x.value, 0.0), "relu", x.needs_grad,
                [(x, lambda g: g * pos)])


def sigmoid(x: Node) -> Node:
    v = x.value
    out = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                   np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
    return Node(out, "sigmoid", x.needs_grad,
                [(x, lambda g: g * out * (1.0 - out))])


def log(x: Node) -> Node:
    """Natural log with arguments clamped at LOG_CLAMP; zero gradient when clamped."""
    clamped = np.maximum(x.value, LOG_CLAMP)
    live = x.value > LOG_CLAMP
    return Node(np.log(clamped), "log", x.needs_grad,
                [(x, lambda g: np.where(live, g / clamped, 0.0))])


def sum_all(x: Node) -> Node:
    val = np.asarray(x.value.sum())
    return Node(val, "sum", x.needs_grad,
                [(x, lambda g: np.broadcast_to(g, x.value.shape).copy())])


def reshape(x: Node, shape) -> Node:
    orig = x.value.shape
    return Node(x.value.reshape(shape), "reshape", x.needs_grad,
                [(x, lambda g: g.reshape(orig))])


def transpose(x: Node, axes) -> Node:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return Node(x.value.transpose(axes), "transpose", x.needs_grad,
                [(x, lambda g: g.transpose(inv))])


def gather_rows(x: Node, idx: np.ndarray) -> Node:
    """Select rows along the first axis; backward scatter-adds into zeros."""
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        dx = np.zeros_like(x.value)
        np.add.at(dx, idx, g)
        return dx

    return Node(x.value[idx], "gather_rows", x.needs_grad, [(x, vjp)])


def scatter_rows(x: Node, idx: np.ndarray, n_rows: int) -> Node:
    """Place rows of x at positions idx of a zero matrix with n_rows rows."""
    idx = np.asarray(idx, dtype=np.intp)
    if len(idx) != x.value.shape[0]:
        raise ShapeError(f"scatter_rows: {len(idx)} indices for {x.value.shape[0]} rows")
    out = np.zeros((n_rows,) + x.value.shape[1:], dtype=x.value.dtype)
    out[idx] = x.value
    return Node(out, "scatter_rows", x.needs_grad, [(x, lambda g: g[idx])])


def masked_softmax(scores: Node, additive_mask: np.ndarray) -> Node:
    """Row softmax over the last axis of (scores + additive_mask).

    Mask entries at or below the exclusion threshold contribute exactly 0
    to the output and receive exactly 0 gradient; fully-masked rows yield
    all-zero rows.
    """
    if not _binary_shapes_ok(scores.value, additive_mask):
        raise ShapeError(
            f"masked_softmax: mask {additive_mask.shape} does not broadcast to {scores.shape}")
    z = scores.value + additive_mask
    valid = np.broadcast_to(additive_mask > _MASKED_BELOW, z.shape)
    zmax = np.where(valid, z, -np.inf).max(axis=-1, keepdims=True)
    zmax = np.where(np.isfinite(zmax), zmax, 0.0)
    e = np.where(valid, np.exp(z - zmax), 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    out = np.where(denom > 0.0, e / np.where(denom > 0.0, denom, 1.0), 0.0)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return out * (g - inner)

    return Node(out, "masked_softmax", scores.needs_grad, [(scores, vjp)])


def layer_norm(x: Node, gamma: Node, beta: Node, eps: float = LAYERNORM_EPS) -> Node:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    f = x.value.shape[-1]
    if gamma.value.shape != (f,) or beta.value.shape != (f,):
        raise ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} vs feature {f}")
    mu = x.value.mean(axis=-1, keepdims=True)
    xc = x.value - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = y * gamma.value + beta.value

    def vjp_x(g):
        dy = g * gamma.value
        return inv * (dy - dy.mean(axis=-1, keepdims=True)
                      - y * (dy * y).mean(axis=-1, keepdims=True))

    lead = tuple(range(x.value.ndim - 1))
    return Node(out, "layer_norm", x.needs_grad or gamma.needs_grad or beta.needs_grad, [
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

    return Node(y, "l2_normalize", x.needs_grad, [(x, vjp)])


def dropout(x: Node, rate: float, rng: np.random.Generator, train: bool) -> Node:
    """Inverted dropout: scales kept units by 1/(1-rate) so eval is a pass-through."""
    if not train or rate <= 0.0:
        return x
    keep = (rng.random(x.value.shape) >= rate).astype(x.value.dtype) / (1.0 - rate)
    return Node(x.value * keep, "dropout", x.needs_grad,
                [(x, lambda g: g * keep)])


def _im2col(x: np.ndarray, kh: int, kw: int, pad: int):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    oh, ow = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), oh, ow


def conv2d(x: Node, w: Node, b: Node, pad: int = 1) -> Node:
    """Stride-1 2-D convolution, NCHW layout, weight (F, C, kh, kw)."""
    n, c, h, ww = x.value.shape
    f, cw, kh, kw = w.value.shape
    if cw != c:
        raise ShapeError(f"conv2d: input channels {c} vs weight channels {cw}")
    if b.value.shape != (f,):
        raise ShapeError(f"conv2d: bias shape {b.value.shape} vs {f} filters")
    cols, oh, ow = _im2col(x.value, kh, kw, pad)
    wmat = w.value.reshape(f, -1)
    out = (cols @ wmat.T + b.value).reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    def vjp_x(g):
        # full correlation with spatially flipped, channel-swapped weights
        wflip = w.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        gcols, gh, gw = _im2col(np.ascontiguousarray(g), kh, kw, kh - 1 - pad)
        dx = (gcols @ wflip.reshape(c, -1).T).reshape(n, gh, gw, c).transpose(0, 3, 1, 2)
        return dx

    def vjp_w(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(-1, f)
        return (cols.T @ gmat).T.reshape(f, c, kh, kw)

    return Node(np.ascontiguousarray(out), "conv2d",
                x.needs_grad or w.needs_grad or b.needs_grad, [
        (x, vjp_x),
        (w, vjp_w),
        (b, lambda g: g.sum(axis=(0, 2, 3))),
    ])


def avg_pool2(x: Node) -> Node:
    """2x2 average pooling with stride 2; spatial dims must be even."""
    n, c, h, w = x.value.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2: spatial dims must be even, got {(h, w)}")
    out = x.value.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))

    def vjp(g):
        return np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25

    return Node(out, "avg_pool2", x.needs_grad, [(x, vjp)])


def backward(loss: Node) -> None:
    """Populate adjoints of every grad-requiring node reachable from a scalar loss."""
    if loss.value.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    # reachable subgraph along grad-requiring edges
    seen = {id(loss): loss}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent, _ in node._vjps:
            if parent.needs_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    loss.adjoint = np.ones_like(loss.value)
    for node in sorted(seen.values(), key=lambda n: n.order, reverse=True):
        if node.adjoint is None:
            continue
        for parent, vjp in node._vjps:
            if not parent.needs_grad:
                continue
            contrib = vjp(node.adjoint)
            if parent.adjoint is None:
                parent.adjoint = np.array(contrib, copy=True)
            else:
                parent.adjoint += contrib


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
    loss, leaves = out
    backward(loss)
    analytic = {k: (leaves[k].adjoint if leaves[k].adjoint is not None
                    else np.zeros_like(v)) for k, v in params.items()}

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

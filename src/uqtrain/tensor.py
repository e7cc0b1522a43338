"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is a Wengert list.  While a Tape is active, every op that sees
at least one requires_grad input appends a node (output, inputs, backward
closure) in execution order.  Because each node is recorded after the
nodes that produced its inputs, replaying the list in reverse visits the
graph in reverse topological order, and a single sweep accumulates exact
gradients into every leaf.

Design rules the ops follow:

* all buffers are float64 and ops return fresh arrays (no views escape);
* degenerate numerics raise (DegenerateDenominator) rather than letting
  NaN or inf propagate silently;
* forward values match the textbook definitions, standard deviations use
  the population convention smoothed as sqrt(var + 1e-12).
"""

import numpy as np

from .errors import ContractError, DegenerateDenominator, ShapeError

# |denominator| below this is treated as a division by zero.
EPS_DIV = 1e-12
# variance smoothing inside the std ops; keeps sqrt differentiable at 0.
EPS_VAR = 1e-12


class DiffArray:
    """A dense float64 array plus the slots autodiff needs.

    values is the payload, grad is filled by backward(), requires_grad
    marks leaves that want gradients (it propagates through ops).
    """

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        # ascontiguousarray would promote 0-d scalars to shape (1,)
        arr = np.asarray(values, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.values = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def size(self):
        return self.values.size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"DiffArray(shape={self.values.shape}{flag})"


def constant(values) -> DiffArray:
    return DiffArray(values, requires_grad=False)


def parameter(values) -> DiffArray:
    return DiffArray(values, requires_grad=True)


class _Node:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out, inputs, backward):
        self.out = out
        self.inputs = inputs
        self.backward = backward


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Execution trace used as a context manager.

    with Tape() as tape:
        loss = ...ops...
    backward(loss, tape)
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out: DiffArray, inputs, backward) -> DiffArray:
    out.requires_grad = any(i.requires_grad for i in inputs)
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.nodes.append(_Node(out, tuple(inputs), backward))
    return out


def backward(loss: DiffArray, tape: Tape) -> None:
    """Accumulate d loss / d leaf into .grad for everything on the tape.

    loss must be a scalar (shape ()).  Gradients from any previous sweep
    over the same arrays are cleared first, so optimizer steps never see
    stale accumulation.  Leaves the loss does not depend on end up with
    zero gradients rather than None.
    """
    if loss.values.shape != ():
        raise ContractError("backward needs a scalar loss, got shape "
                            f"{loss.values.shape}")

    seen: dict[int, DiffArray] = {}
    for node in tape.nodes:
        for arr in (node.out, *node.inputs):
            if id(arr) not in seen:
                seen[id(arr)] = arr
                arr.grad = None

    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        g = node.out.grad
        if g is None:
            continue
        contribs = node.backward(g)
        for inp, contrib in zip(node.inputs, contribs):
            if contrib is None or not inp.requires_grad:
                continue
            if inp.grad is None:
                inp.grad = np.zeros_like(inp.values)
            inp.grad += contrib

    for arr in seen.values():
        if arr.requires_grad and arr.grad is None:
            arr.grad = np.zeros_like(arr.values)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to shape, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_broadcast(a: DiffArray, b: DiffArray, opname: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} "
                         "do not broadcast") from None


def add(a: DiffArray, b: DiffArray) -> DiffArray:
    _check_broadcast(a, b, "add")
    out = DiffArray(a.values + b.values)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), bw)


def sub(a: DiffArray, b: DiffArray) -> DiffArray:
    _check_broadcast(a, b, "sub")
    out = DiffArray(a.values - b.values)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(out, (a, b), bw)


def mul(a: DiffArray, b: DiffArray) -> DiffArray:
    _check_broadcast(a, b, "mul")
    out = DiffArray(a.values * b.values)

    def bw(g):
        return (_unbroadcast(g * b.values, a.shape),
                _unbroadcast(g * a.values, b.shape))

    return _record(out, (a, b), bw)


def div(a: DiffArray, b: DiffArray) -> DiffArray:
    _check_broadcast(a, b, "div")
    if np.any(np.abs(b.values) < EPS_DIV):
        raise DegenerateDenominator(
            f"div: denominator within {EPS_DIV} of zero")
    out = DiffArray(a.values / b.values)

    def bw(g):
        ga = _unbroadcast(g / b.values, a.shape)
        gb = _unbroadcast(-g * out.values / b.values, b.shape)
        return ga, gb

    return _record(out, (a, b), bw)


def scalar_mul(c: float, x: DiffArray) -> DiffArray:
    c = float(c)
    out = DiffArray(c * x.values)

    def bw(g):
        return (c * g,)

    return _record(out, (x,), bw)


def relu(x: DiffArray) -> DiffArray:
    out = DiffArray(np.maximum(x.values, 0.0))
    mask = x.values > 0.0  # subgradient 0 at the kink

    def bw(g):
        return (g * mask,)

    return _record(out, (x,), bw)


def softplus(x: DiffArray) -> DiffArray:
    out = DiffArray(np.logaddexp(0.0, x.values))

    def bw(g):
        v = x.values
        sig = np.where(v >= 0.0,
                       1.0 / (1.0 + np.exp(-np.abs(v))),
                       np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
        return (g * sig,)

    return _record(out, (x,), bw)


def matmul(a: DiffArray, b: DiffArray) -> DiffArray:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = DiffArray(a.values @ b.values)

    def bw(g):
        return g @ b.values.T, a.values.T @ g

    return _record(out, (a, b), bw)


def transpose(x: DiffArray) -> DiffArray:
    if x.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d operand, got {x.shape}")
    out = DiffArray(x.values.T.copy())

    def bw(g):
        return (g.T.copy(),)

    return _record(out, (x,), bw)


def reshape(x: DiffArray, new_shape) -> DiffArray:
    new_shape = tuple(int(d) for d in new_shape)
    if int(np.prod(new_shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"reshape: {x.shape} has {x.size} elements, "
                         f"target {new_shape} does not match")
    out = DiffArray(x.values.reshape(new_shape).copy())

    def bw(g):
        return (g.reshape(x.shape),)

    return _record(out, (x,), bw)


def take_rows(x: DiffArray, indices) -> DiffArray:
    """Gather rows of a 2-d array; backward scatter-adds into place."""
    if x.ndim != 2:
        raise ShapeError(f"take_rows needs a 2-d operand, got {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("take_rows indices must be 1-d")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError("take_rows index out of range")
    out = DiffArray(x.values[idx])

    def bw(g):
        gx = np.zeros_like(x.values)
        np.add.at(gx, idx, g)
        return (gx,)

    return _record(out, (x,), bw)


def total_sum(x: DiffArray) -> DiffArray:
    out = DiffArray(np.asarray(x.values.sum()))

    def bw(g):
        return (np.broadcast_to(g, x.shape).copy(),)

    return _record(out, (x,), bw)


def row_sum(x: DiffArray) -> DiffArray:
    if x.ndim != 2:
        raise ShapeError(f"row_sum needs a 2-d operand, got {x.shape}")
    out = DiffArray(x.values.sum(axis=1))

    def bw(g):
        return (np.repeat(g[:, None], x.shape[1], axis=1),)

    return _record(out, (x,), bw)


# ---------------------------------------------------------------------------
# statistics ops (population convention, smoothed sqrt)


def spatial_mean(x: DiffArray) -> DiffArray:
    """(B, C, H, W) -> (B, C) mean over the spatial positions."""
    if x.ndim != 4:
        raise ShapeError(f"spatial_mean needs a 4-d map, got {x.shape}")
    out = DiffArray(x.values.mean(axis=(2, 3)))
    hw = x.shape[2] * x.shape[3]

    def bw(g):
        return (np.broadcast_to(g[:, :, None, None] / hw, x.shape).copy(),)

    return _record(out, (x,), bw)


def spatial_std(x: DiffArray) -> DiffArray:
    """(B, C, H, W) -> (B, C) population std over the spatial positions."""
    if x.ndim != 4:
        raise ShapeError(f"spatial_std needs a 4-d map, got {x.shape}")
    mean = x.values.mean(axis=(2, 3), keepdims=True)
    var = np.mean((x.values - mean) ** 2, axis=(2, 3))
    std = np.sqrt(var + EPS_VAR)
    out = DiffArray(std)
    hw = x.shape[2] * x.shape[3]

    def bw(g):
        # d std / d x = (x - mean) / (N * std); the smoothing keeps std > 0
        scale = g[:, :, None, None] / (hw * std[:, :, None, None])
        return ((x.values - mean) * scale,)

    return _record(out, (x,), bw)


def batch_mean(x: DiffArray) -> DiffArray:
    """(B, C) -> (C,) mean over the batch."""
    if x.ndim != 2:
        raise ShapeError(f"batch_mean needs a 2-d operand, got {x.shape}")
    out = DiffArray(x.values.mean(axis=0))
    n = x.shape[0]

    def bw(g):
        return (np.broadcast_to(g[None, :] / n, x.shape).copy(),)

    return _record(out, (x,), bw)


def batch_std(x: DiffArray) -> DiffArray:
    """(B, C) -> (C,) population std over the batch."""
    if x.ndim != 2:
        raise ShapeError(f"batch_std needs a 2-d operand, got {x.shape}")
    mean = x.values.mean(axis=0, keepdims=True)
    var = np.mean((x.values - mean) ** 2, axis=0)
    std = np.sqrt(var + EPS_VAR)
    out = DiffArray(std)
    n = x.shape[0]

    def bw(g):
        scale = g[None, :] / (n * std[None, :])
        return ((x.values - mean) * scale,)

    return _record(out, (x,), bw)


# ---------------------------------------------------------------------------
# structured ops


def log_softmax(x: DiffArray) -> DiffArray:
    """Rowwise log-softmax of (B, K) logits via the log-sum-exp trick."""
    if x.ndim != 2:
        raise ShapeError(f"log_softmax needs a 2-d operand, got {x.shape}")
    shifted = x.values - x.values.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    out = DiffArray(shifted - lse)

    def bw(g):
        p = np.exp(out.values)
        return (g - p * g.sum(axis=1, keepdims=True),)

    return _record(out, (x,), bw)


# ---------------------------------------------------------------------------
# finite-difference utilities (the ground truth the grad tests lean on)


def numeric_gradient(f, arrays, index: int, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of scalar f w.r.t. arrays[index]."""
    target = arrays[index].values
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(arrays).values)
        flat[i] = orig - h
        fm = float(f(arrays).values)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(f, arrays, h: float = 1e-4) -> float:
    """Backprop f through a fresh tape and compare against central
    differences for every requires_grad input.  Returns the worst
    relative error, |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    with Tape() as tape:
        out = f(arrays)
    backward(out, tape)
    analytic = [a.grad.copy() if a.requires_grad else None for a in arrays]
    worst = 0.0
    for i, arr in enumerate(arrays):
        if not arr.requires_grad:
            continue
        numeric = numeric_gradient(f, arrays, i, h)
        worst = max(worst, max_rel_error(analytic[i], numeric))
    return worst

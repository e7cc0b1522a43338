"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is a Wengert list.  While a Tape is active, every op that sees
at least one requires_grad input appends a node (output, inputs, backward
closure) in execution order.  Because each node is recorded after the
nodes that produced its inputs, replaying the list in reverse visits the
graph in reverse topological order, and a single sweep accumulates exact
gradients into every leaf.

The sweep only adds into .grad: whoever reads gradients clears them
before it, and reads a grad of None (an array not reached) as zero.

Each step of the model is one op with a closed-form backward: affine
(x @ w + b) for a backbone block or a head, relu, softplus (with an
optional floor) for sigma, perturb_stats for a compensated layer,
mix_partners for the sigma-weighted blend, triplet_hinge for the triplet
term and class_cross_entropy for the classification loss.  add and
scalar_mul, on equal shapes only, combine the loss terms.

Design rules the ops follow:

* all buffers are float64 and ops return fresh arrays (no views escape);
* a backward returns, for each input, None, the g it was handed (add
  does, twice) or an array it allocated in that call, never one it
  keeps.  backward() adopts such a fresh array as the input's gradient
  without copying it, and copies g, views, non-contiguous arrays, numpy
  scalars and an array the node already gave to another input, so no
  later += writes through to another gradient;
* a denominator within EPS_DIV of zero raises ContractError rather
  than letting NaN or inf propagate silently;
* forward values match the textbook definitions.
"""

from collections.abc import Callable

import numpy as np

from .errors import ContractError

# |denominator| below this is treated as a division by zero.
EPS_DIV = 1e-12


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


def _fresh(contrib, g, adopted) -> bool:
    """Whether a first contribution may become an input's gradient as it
    is: an array the backward allocated (not g, no view, C-contiguous)
    that this node has not already given to another input."""
    return (isinstance(contrib, np.ndarray) and contrib is not g
            and contrib.base is None and contrib.flags.c_contiguous
            and not any(contrib is a for a in adopted))


def backward(loss: DiffArray, tape: Tape) -> None:
    """Add d loss / d array into .grad for every array the loss reaches.

    loss must be a scalar (shape ()).  The sweep only adds: a grad left
    in place is added onto, and an array the loss does not reach keeps
    the grad it had, None on a fresh one.  So a caller clears the leaves
    it will read before the sweep, and a reader takes None as zero.
    Sweep a tape once: a second sweep would add onto the gradients its
    intermediate arrays kept from the first.
    """
    if loss.values.shape != ():
        raise ContractError("backward needs a scalar loss, got shape "
                            f"{loss.values.shape}")

    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(tape.nodes):
        g = node.out.grad
        if g is None:
            continue
        contribs = node.backward(g)
        adopted = []
        for inp, contrib in zip(node.inputs, contribs):
            if contrib is None or not inp.requires_grad:
                continue
            if inp.grad is not None:
                inp.grad += contrib
            elif _fresh(contrib, g, adopted):
                inp.grad = contrib
                adopted.append(contrib)
            else:
                inp.grad = np.array(contrib, order="C")


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def add(a: DiffArray, b: DiffArray) -> DiffArray:
    if a.shape != b.shape:
        raise ContractError(f"add: shapes {a.shape} and {b.shape} differ")
    out = DiffArray(a.values + b.values)

    def bw(g):
        return g, g

    return _record(out, (a, b), bw)


def scalar_mul(c: float, x: DiffArray) -> DiffArray:
    c = float(c)
    out = DiffArray(c * x.values)

    def bw(g):
        return (c * g,)

    return _record(out, (x,), bw)


def relu(x: DiffArray) -> DiffArray:
    out = DiffArray(np.maximum(x.values, 0.0))
    if not (x.requires_grad and _active_tape() is not None):
        # nothing will run a backward: no mask, no node
        out.requires_grad = x.requires_grad
        return out
    mask = x.values > 0.0  # subgradient 0 at the kink

    def bw(g):
        return (g * mask,)

    return _record(out, (x,), bw)


def softplus(x: DiffArray, floor: float = 0.0) -> DiffArray:
    """log(1 + e^x) + floor, with log(1 + e^x) as max(x, 0) +
    log1p(e^-|x|) and one exp that the backward reuses.  It agrees with
    np.logaddexp(0, x) to 1e-15 relative, which on numpy 2.4 takes 3 to
    7 times as long."""
    v = x.values
    e = np.exp(-np.abs(v))
    out = np.maximum(v, 0.0)
    # off the tape no backward reads e, so log1p overwrites it: a large
    # eval batch then holds no more arrays at once than np.logaddexp did
    on_tape = x.requires_grad and _active_tape() is not None
    out += np.log1p(e) if on_tape else np.log1p(e, out=e)
    if floor:
        out += floor

    def bw(g):
        # the logistic sigmoid, stable on both sides of 0: each branch
        # divides its numerator by the same 1 + e
        sig = np.where(v >= 0.0, 1.0, e) / (1.0 + e)
        return (g * sig,)

    return _record(DiffArray(out), (x,), bw)


def affine(x: DiffArray, w: DiffArray, b: DiffArray) -> DiffArray:
    """x @ w + b for a (B, n) input, an (n, m) weight and an (m,) bias."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] \
            or b.shape != (w.shape[1],):
        raise ContractError(f"affine: {x.shape} @ {w.shape} + {b.shape} "
                            "does not fit")
    y = x.values @ w.values
    y += b.values
    out = DiffArray(y)
    # a constant input, such as the data a first block reads, needs no
    # gradient: skip its product
    x_grad = x.requires_grad

    def bw(g):
        return (g @ w.values.T if x_grad else None, x.values.T @ g,
                g.sum(axis=0))

    return _record(out, (x, w, b), bw)


# ---------------------------------------------------------------------------
# statistics op: a whole compensated layer is one node


def perturb_stats(x: DiffArray, centered, u, s, sm, ss, eps_m, eps_s,
                  eps_div: float) -> DiffArray:
    """Re-standardize a map by its instance statistics and re-scale and
    re-shift it by jittered ones:

        out = (s + eps_s * ss) * ((x - u) / (s + eps_div)) + (u + eps_m * sm)

    x is a (B, C * H * W) block output or its (B, C, H, W) view, and the
    output keeps x's shape.  The op works on position planes: x read as
    (B, C, H * W) and transposed to (H * W, B, C), so every (B, C)
    operand broadcasts along the leading axis and every spatial sum adds
    whole planes left to right, as layer_stats does.  centered is x - u
    on those planes, as layer_stats leaves it.  u, s are the (B, C)
    spatial mean and smoothed population std of this exact x, and sm, ss
    the (C,) smoothed population stds of u and s over the batch, all
    plain arrays; the backward differentiates through them in closed
    form.  eps_m, eps_s are (B, C) noise fields.  The caller checks the
    shapes.
    """
    n, b, c = centered.shape
    scale = s + eps_s * ss
    denom = s + eps_div
    planes = scale * (centered / denom) + (u + eps_m * sm)
    out = DiffArray(planes.transpose(1, 2, 0).reshape(x.shape))

    def bw(g):
        # every divisor is at least 1e-6: s, sm and ss carry the variance
        # smoothing and denom adds eps_div, so no zero-denominator guard
        g = np.ascontiguousarray(g.reshape(b, c, n).transpose(2, 0, 1))
        a = scale / denom
        keep = 1.0 - a
        g_sum = np.add.reduce(g, axis=0)
        gn_sum = np.add.reduce(g * centered / denom, axis=0)
        # d loss / d u and d loss / d s, the batch stds sm, ss included
        gu = (g_sum * keep + (u - u.sum(axis=0) / b)
              * (eps_m * g_sum).sum(axis=0) / (b * sm))
        gs = (gn_sum * keep + (s - s.sum(axis=0) / b)
              * (eps_s * gn_sum).sum(axis=0) / (b * ss))
        # the last add writes through planes of a fresh array in x's
        # layout, so the sweep can keep it as x's gradient without a copy
        gx = np.empty(x.shape)
        np.add(g * a + gu / n, centered * (gs / (n * s)),
               out=gx.reshape(b, c, n).transpose(2, 0, 1))
        return (gx,)

    return _record(out, (x,), bw)


# ---------------------------------------------------------------------------
# structured ops


def class_cross_entropy(features: DiffArray, classifier: DiffArray,
                        targets) -> DiffArray:
    """-(1/B) * sum(targets * log_softmax(features @ classifier^T)) for
    (B, d) features, a bias-free (K, d) classifier and constant (B, K)
    target counts.  The log-softmax subtracts each row's largest logit
    before exp (the log-sum-exp trick), so exp cannot overflow and the
    log's argument is at least 1.  The caller checks the shapes.
    """
    t = np.asarray(targets, dtype=np.float64)
    w = classifier.values.T
    logits = features.values @ w
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    c = -1.0 / features.shape[0]
    out = DiffArray(c * (t * logp).sum())

    def bw(g):
        gl = (c * g) * t
        gl = gl - np.exp(logp) * gl.sum(axis=1, keepdims=True)
        return gl @ w.T, (features.values.T @ gl).T

    return _record(out, (features, classifier), bw)


def _partner_rows(index, b: int, opname: str) -> np.ndarray:
    idx = np.asarray(index, dtype=np.int64)
    if idx.shape != (b,) or (b and (idx.min() < 0 or idx.max() >= b)):
        raise ContractError(f"{opname}: partner indices must be {b} rows of "
                            f"the batch, got shape {idx.shape}")
    return idx


def _row_mask(keep, b: int, opname: str) -> np.ndarray:
    k = np.asarray(keep, dtype=np.float64)
    if k.shape != (b,):
        raise ContractError(f"{opname}: row mask must be ({b},), got shape "
                            f"{k.shape}")
    return k


def _flat_rows(index: np.ndarray, d: int) -> np.ndarray:
    """Flat positions row * d + col of rows index[i] of a (B, d) array,
    in row-major order: the bins _scatter_rows adds into."""
    return (index[:, None] * d + np.arange(d)).ravel()


def _scatter_rows(flat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Add rows[i] into row index[i] of a zero array shaped like rows,
    for flat = _flat_rows(index, d): one bincount, which sums in the same
    order as np.add.at and is several times faster."""
    b, d = rows.shape
    return np.bincount(flat, weights=rows.ravel(),
                       minlength=b * d).reshape(b, d)


def mix_partners(mean: DiffArray, sigma: DiffArray, partner_indices,
                 keep) -> tuple[DiffArray, Callable[[], list[np.ndarray]]]:
    """Blend row i of a (B, d) mean with rows p_k[i], for a list of (B,)
    partner indices p_k, weighted by the (B, d) sigmas s:

        w_self = s / (s + s[p_1] + ...),  w_k = s[p_k] / (same)
        out = keep * (w_self * mean + w_1 * mean[p_1] + ...)
              + (1 - keep) * mean   for a (B,) 0/1 row mask keep.

    Also returns a function that builds the constant weights as they act
    on out, [keep * w_self + 1 - keep, keep * w_1, ...], when called: only
    a report reads them, so a step that does not pays nothing for them.
    Raises ContractError on a denominator within EPS_DIV of zero.
    """
    b, d = mean.shape
    idx = [_partner_rows(p, b, "mix_partners") for p in partner_indices]
    m, s = mean.values, sigma.values
    m_p = [m[p] for p in idx]
    s_p = [s[p] for p in idx]
    denom = sum(s_p, s)   # left to right, s first
    if np.any(np.abs(denom) < EPS_DIV):
        raise ContractError(
            f"mix_partners: denominator within {EPS_DIV} of zero")
    w_self = s / denom
    w_p = [sp / denom for sp in s_p]
    mixed = sum((w * rows for w, rows in zip(w_p, m_p)), w_self * m)
    k = _row_mask(keep, b, "mix_partners")[:, None]
    drop = 1.0 - k
    out = DiffArray(k * mixed + drop * m)

    def bw(g):
        a = k * g
        g_mean, g_sigma = drop * g + w_self * a, a * (m - mixed) / denom
        for p, w, rows in zip(idx, w_p, m_p):
            flat = _flat_rows(p, d)
            g_mean += _scatter_rows(flat, a * w)
            g_sigma += _scatter_rows(flat, a * (rows - mixed) / denom)
        return g_mean, g_sigma

    def weights():
        return [k * w_self + drop] + [k * w for w in w_p]

    return _record(out, (mean, sigma), bw), weights


def triplet_hinge(mean: DiffArray, pos, neg, keep,
                  margin: float) -> DiffArray:
    """sum_i keep_i * max(|m_i - m_pos_i|^2 - |m_i - m_neg_i|^2 + margin, 0)
    over the rows of a (B, d) mean, for (B,) partner indices pos, neg and
    a (B,) 0/1 row mask keep."""
    b = mean.shape[0]
    pos, neg = (_partner_rows(p, b, "triplet_hinge") for p in (pos, neg))
    m = mean.values
    d_pos, d_neg = m - m[pos], m - m[neg]
    gap = (d_pos * d_pos).sum(axis=1) - (d_neg * d_neg).sum(axis=1) + margin
    k = _row_mask(keep, b, "triplet_hinge")
    out = DiffArray(np.asarray((np.maximum(gap, 0.0) * k).sum()))

    def bw(g):
        c = (2.0 * g * k * (gap > 0.0))[:, None]
        d = m.shape[1]
        return (c * (d_pos - d_neg) - _scatter_rows(_flat_rows(pos, d),
                                                    c * d_pos)
                + _scatter_rows(_flat_rows(neg, d), c * d_neg),)

    return _record(out, (mean,), bw)


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
    for arr in arrays:
        arr.grad = None
    with Tape() as tape:
        out = f(arrays)
    backward(out, tape)
    worst = 0.0
    for i, arr in enumerate(arrays):
        if not arr.requires_grad:
            continue
        # an input the tape never reaches has no grad: its gradient is 0
        analytic = np.zeros_like(arr.values) if arr.grad is None else arr.grad
        numeric = numeric_gradient(f, arrays, i, h)
        worst = max(worst, max_rel_error(analytic, numeric))
    return worst

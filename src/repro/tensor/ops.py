"""Differentiable primitive operations for :class:`repro.tensor.Tensor`.

Each op computes its forward result with numpy and returns a tensor whose
``_backward`` closure maps the upstream gradient to per-parent gradients.
All binary ops support full numpy broadcasting; :func:`unbroadcast`
reduces gradients back to each operand's original shape.

Structure of every op::

    data = <numpy forward>
    if _no_graph(parents):            # no_grad()/inference_mode(), or no
        return Tensor._from_data(data)  # parent requires grad
    def backward(grad): ...           # closure built only when recording
    return Tensor._make(data, parents, backward)

The early return is the forward-only fast path: under ``no_grad()`` /
``inference_mode()`` no backward closure, cell variables or parent tuple
are allocated — per-op overhead drops to one numpy call plus one slotted
``Tensor``. Hot-path *fused* ops (:func:`linear`, :func:`sparse_conv1x1`,
:func:`row_softmax`, :func:`pairwise_scores`) additionally collapse
multi-op numpy pipelines into single kernels with in-place arithmetic.
Every op computes in the dtype of its inputs and allocates its own
output: there is no ambient dtype or buffer pool.

Every public op registers itself in :mod:`repro.backend.registry` under
its function name, giving alternative backends a dispatch seam.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backend import register
from repro.tensor import tensor as _tensor_module
from repro.tensor.tensor import Tensor


def _wrap(value, like: "Tensor | None" = None) -> Tensor:
    """Coerce ``value`` to a Tensor, matching ``like``'s dtype if given.

    The dtype match is the upcast fix: a python scalar entering a
    ``float32`` graph becomes a ``float32`` constant instead of dragging
    the whole expression to ``float64``.
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=like.data.dtype if like is not None else None)


def _wrap_pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap both operands of a binary op, non-tensors adopting the
    tensor operand's dtype."""
    a_is = isinstance(a, Tensor)
    b_is = isinstance(b, Tensor)
    if a_is and b_is:
        return a, b
    if a_is:
        return a, Tensor(b, dtype=a.data.dtype)
    if b_is:
        return Tensor(a, dtype=b.data.dtype), b
    return Tensor(a), Tensor(b)


def _no_graph(*parents: Tensor) -> bool:
    """True when no backward closure is needed for these parents."""
    if not _tensor_module._GRAD_ENABLED:
        return True
    for parent in parents:
        if parent.requires_grad:
            return False
    return True


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting either prepends dimensions or stretches size-1 axes; the
    correct gradient for the smaller operand sums over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over stretched size-1 axes.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
@register("add")
def add(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    data = a.data + b.data
    if _no_graph(a, b):
        return Tensor._from_data(data)

    def backward(grad):
        return (unbroadcast(grad, a.shape), unbroadcast(grad, b.shape))

    return Tensor._make(data, (a, b), backward)


@register("sub")
def sub(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    data = a.data - b.data
    if _no_graph(a, b):
        return Tensor._from_data(data)

    def backward(grad):
        return (unbroadcast(grad, a.shape), unbroadcast(-grad, b.shape))

    return Tensor._make(data, (a, b), backward)


@register("mul")
def mul(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    data = a.data * b.data
    if _no_graph(a, b):
        return Tensor._from_data(data)

    def backward(grad):
        return (
            unbroadcast(grad * b.data, a.shape),
            unbroadcast(grad * a.data, b.shape),
        )

    return Tensor._make(data, (a, b), backward)


@register("div")
def div(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    data = a.data / b.data
    if _no_graph(a, b):
        return Tensor._from_data(data)

    def backward(grad):
        return (
            unbroadcast(grad / b.data, a.shape),
            unbroadcast(-grad * a.data / (b.data**2), b.shape),
        )

    return Tensor._make(data, (a, b), backward)


@register("neg")
def neg(a) -> Tensor:
    a = _wrap(a)
    data = -a.data
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        return (-grad,)

    return Tensor._make(data, (a,), backward)


@register("pow")
def pow(a, exponent: float) -> Tensor:
    """Elementwise power with a constant (non-tensor) exponent."""
    a = _wrap(a)
    data = a.data**exponent
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        return (grad * exponent * a.data ** (exponent - 1),)

    return Tensor._make(data, (a,), backward)


@register("matmul")
def matmul(a, b) -> Tensor:
    """Matrix product supporting 1-D and batched operands, as ``np.matmul``."""
    a, b = _wrap_pair(a, b)
    data = a.data @ b.data
    if _no_graph(a, b):
        return Tensor._from_data(data)

    def backward(grad):
        a_data, b_data = a.data, b.data
        if a_data.ndim == 1 and b_data.ndim == 1:
            # Inner product: grad is scalar.
            return (grad * b_data, grad * a_data)
        if a_data.ndim == 1:
            # (k,) @ (..., k, n) -> (..., n)
            grad_a = (grad[..., None, :] * b_data).sum(axis=-1)
            grad_a = unbroadcast(grad_a, a_data.shape)
            grad_b = unbroadcast(a_data[..., :, None] * grad[..., None, :], b_data.shape)
            return (grad_a, grad_b)
        if b_data.ndim == 1:
            # (..., m, k) @ (k,) -> (..., m)
            grad_a = unbroadcast(grad[..., :, None] * b_data, a_data.shape)
            grad_b = unbroadcast((grad[..., :, None] * a_data).sum(axis=-2), b_data.shape)
            return (grad_a, grad_b)
        grad_a = grad @ np.swapaxes(b_data, -1, -2)
        grad_b = np.swapaxes(a_data, -1, -2) @ grad
        return (unbroadcast(grad_a, a_data.shape), unbroadcast(grad_b, b_data.shape))

    return Tensor._make(data, (a, b), backward)


# ----------------------------------------------------------------------
# Fused hot-path kernels
# ----------------------------------------------------------------------
@register("linear")
def linear(x, weight, bias=None) -> Tensor:
    """Fused affine map ``x @ W (+ b)`` — one kernel instead of two ops.

    The hot path of every ``Linear`` layer (and the value/self/mix
    projections of the attention stacks). Fusing the bias add into the
    fresh matmul result saves one full-size temporary and one graph node
    per call.
    """
    x = _wrap(x)
    weight = _wrap(weight)
    bias = _wrap(bias) if bias is not None else None
    x_data, w_data = x.data, weight.data

    parents = (x, weight) if bias is None else (x, weight, bias)
    if _no_graph(*parents):
        out = x_data @ w_data
        if bias is not None:
            # In-place is safe: `out` is this op's own fresh array.
            if np.can_cast(bias.data.dtype, out.dtype, casting="same_kind"):
                out += bias.data
            else:
                out = out + bias.data
        return Tensor._from_data(out)

    data = x_data @ w_data
    if bias is not None:
        data = data + bias.data

    need_x = x.requires_grad

    def backward(grad):
        grad_x = None
        if need_x:
            grad_x = unbroadcast(grad @ np.swapaxes(w_data, -1, -2), x_data.shape)
        if x_data.ndim == 1:
            grad_w = np.outer(x_data, grad)
        else:
            grad_w = unbroadcast(np.swapaxes(x_data, -1, -2) @ grad, w_data.shape)
        if bias is None:
            return (grad_x, grad_w)
        return (grad_x, grad_w, unbroadcast(grad, bias.data.shape))

    return Tensor._make(data, parents, backward)


@register("sparse_conv1x1")
def sparse_conv1x1(
    channel, index, count, weight, bias, scale: float = 1.0, relu: bool = False
) -> Tensor:
    """1x1 channel convolution of a COO flow window, ``sum_c W[c] x[c] + b``.

    The flow-convolution kernel (Eqs. 1-4). The window is three parallel
    arrays (``channel``, flat cell ``index``, ``count``; see
    :class:`repro.data.window.FlowWindow`) ordered by ``channel``, as a
    ``FlowWindow`` always is; ``weight`` is ``(c,)`` and
    ``bias`` has the ``(n, n)`` field shape. Each entry contributes
    ``count * (W * scale)[channel]`` to its cell, scatter-added with one
    ``bincount``, so the work is proportional to the window's non-zero
    entries instead of ``c * n * n``. ``scale`` (the input
    normalisation) is folded into the ``c`` weights, not the entries;
    with ``relu=True`` the activation is fused too.
    The window is data: it gets no gradient. The weight gradient is the
    same scatter run backwards, one ``bincount`` over channels.
    """
    weight, bias = _wrap(weight), _wrap(bias)
    w_data, b_data = weight.data, bias.data
    # Entries are grouped by channel, so each entry's weight is a run
    # of W[c]: np.repeat over the channel bounds beats gathering W by
    # channel, and scaling the one temporary in place avoids a second.
    bounds = np.searchsorted(channel, np.arange(w_data.shape[0] + 1))
    coef = np.repeat((w_data * scale).astype(np.float64, copy=False), np.diff(bounds))
    coef *= count
    data = np.bincount(index, weights=coef, minlength=b_data.size).reshape(b_data.shape)
    if data.dtype != b_data.dtype:
        data = data.astype(b_data.dtype)
    data += b_data
    if _no_graph(weight, bias):
        if relu:
            data *= data > 0
        return Tensor._from_data(data)

    mask = None
    if relu:
        mask = data > 0
        data *= mask

    def backward(grad):
        if mask is not None:
            grad = grad * mask
        terms = np.take(grad.ravel(), index)
        terms *= count
        grad_w = np.bincount(channel, weights=terms, minlength=w_data.shape[0])
        return ((grad_w * scale).astype(w_data.dtype, copy=False), grad)

    return Tensor._make(data, (weight, bias), backward)


@register("row_softmax")
def row_softmax(a) -> Tensor:
    """Softmax over the last axis, fused shift-exp-normalise.

    The attention hot path (Eqs. 12/16 row softmax): the shifted logits
    are exponentiated and normalised in place, so the whole op
    materialises a single full-size array instead of three.
    """
    a = _wrap(a)
    a_data = a.data
    shifted = a_data - a_data.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    data = shifted
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        inner = (grad * data).sum(axis=-1, keepdims=True)
        return (data * (grad - inner),)

    return Tensor._make(data, (a,), backward)


@register("pairwise_scores")
def pairwise_scores(projected, attn_src, attn_dst, alpha: float = 1.0) -> Tensor:
    """Fused additive-attention score kernel ``ELU(P a_src + (P a_dst)^T)``.

    Computes the full ``(n, n)`` pre-softmax coefficient matrix of
    Eqs. 11/15 in one op: two thin ``(n, f) @ (f, 1)`` projections, one
    broadcast outer add, and the ELU applied in place — replacing five
    recorded ops (two matmuls, transpose, add, elu) and their closures.
    The forward math matches the unfused path term for term, so float64
    results are bitwise identical.
    """
    projected, attn_src, attn_dst = _wrap(projected), _wrap(attn_src), _wrap(attn_dst)
    p_data = projected.data
    src = p_data @ attn_src.data  # (n, 1)
    dst = p_data @ attn_dst.data  # (n, 1)
    pre = src + dst.T  # (n, n) broadcast outer sum
    # Same expression as ops.elu, reusing `pre` for the negative branch.
    data = np.where(pre > 0, pre, alpha * (np.exp(np.minimum(pre, 0.0)) - 1.0))
    if _no_graph(projected, attn_src, attn_dst):
        return Tensor._from_data(data)
    positive = pre > 0

    def backward(grad):
        grad_pre = grad * np.where(positive, 1.0, data + alpha)
        grad_src = grad_pre.sum(axis=1, keepdims=True)  # (n, 1)
        grad_dst = grad_pre.sum(axis=0)[:, None]  # (n, 1)
        grad_projected = grad_src @ attn_src.data.T + grad_dst @ attn_dst.data.T
        return (
            grad_projected,
            p_data.T @ grad_src,
            p_data.T @ grad_dst,
        )

    return Tensor._make(data, (projected, attn_src, attn_dst), backward)


@register("gated_fusion")
def gated_fusion(short, long, gate) -> Tensor:
    """Fused attentive short/long blend (Eqs. 5-8), elementwise.

    ``out = beta * short + (1 - beta) * long`` with
    ``beta = sigmoid(gate * short - gate * long)`` — the two-way softmax
    over {short, long} scores written as a sigmoid of the score
    difference, immune to overflow. One op replaces the eight recorded
    elementwise ops (and closures) of the unfused expression; the
    forward uses the same stable-sigmoid expressions as :func:`sigmoid`,
    so float64 results are bitwise identical to the unfused path.
    """
    short, long, gate = _wrap(short), _wrap(long), _wrap(gate)
    s_data, l_data, g_data = short.data, long.data, gate.data
    diff = g_data * s_data - g_data * l_data
    positive = diff >= 0
    exp_neg = np.exp(np.where(positive, -diff, diff))
    beta = np.where(positive, 1.0 / (1.0 + exp_neg), exp_neg / (1.0 + exp_neg))
    data = beta * s_data + (1.0 - beta) * l_data
    if _no_graph(short, long, gate):
        return Tensor._from_data(data)

    def backward(grad):
        # d(out)/d(diff) = beta * (1 - beta) * (short - long); diff is
        # gate-weighted, so the chain rule scales by gate (for short and
        # long) or by (short - long) (for the gate itself).
        delta = s_data - l_data
        u = beta * (1.0 - beta) * delta
        gate_u = g_data * u
        grad_short = grad * (beta + gate_u)
        grad_long = grad * (1.0 - beta - gate_u)
        grad_gate = grad * (u * delta)
        return (
            unbroadcast(grad_short, s_data.shape),
            unbroadcast(grad_long, l_data.shape),
            unbroadcast(grad_gate, g_data.shape),
        )

    return Tensor._make(data, (short, long, gate), backward)


@register("joint_rmse")
def joint_rmse(demand_pred, demand_true, supply_pred, supply_true,
               eps: float = 1e-12) -> Tensor:
    """Fused joint demand-supply RMSE (Eq. 21), the training loss.

    ``sqrt(mean((x - x_hat)^2) + mean((y - y_hat)^2) + eps)`` as one
    recorded op — the unfused expression records nine (two subs, two
    squares, two means, two adds, a sqrt), all on station-sized arrays
    where per-op overhead dwarfs the arithmetic. Forward expressions
    match the unfused path term for term.
    """
    demand_pred, demand_true = _wrap_pair(demand_pred, demand_true)
    supply_pred, supply_true = _wrap_pair(supply_pred, supply_true)
    demand_diff = demand_pred.data - demand_true.data
    supply_diff = supply_pred.data - supply_true.data
    value = np.sqrt(
        np.mean(demand_diff**2) + np.mean(supply_diff**2) + eps
    )
    parents = (demand_pred, demand_true, supply_pred, supply_true)
    if _no_graph(*parents):
        return Tensor._from_data(value)
    need_demand_true = demand_true.requires_grad
    need_supply_true = supply_true.requires_grad

    def backward(grad):
        # d/d(pred) sqrt(mean(diff^2) + ...) = diff / (N * L).
        scale = grad / value
        grad_demand = (scale / demand_diff.size) * demand_diff
        grad_supply = (scale / supply_diff.size) * supply_diff
        return (
            grad_demand,
            -grad_demand if need_demand_true else None,
            grad_supply,
            -grad_supply if need_supply_true else None,
        )

    return Tensor._make(np.asarray(value), parents, backward)


@register("sdp_attention")
def sdp_attention(query, key, value) -> Tensor:
    """Fused scaled-dot-product attention ``softmax(Q K^T) V``.

    ``query`` arrives pre-scaled (the 1/sqrt(d) factor folds into the
    thin ``(n, d)`` operand, see ``ScaledDotProductAttention``). The
    expressions mirror ``row_softmax(q @ k.T) @ v`` term for term, so
    float64 results are bitwise identical to that unfused chain.
    """
    query, key, value = _wrap(query), _wrap(key), _wrap(value)
    q_data, k_data, v_data = query.data, key.data, value.data
    no_graph = _no_graph(query, key, value)

    scores = q_data @ k_data.T
    attn = scores - scores.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    data = attn @ v_data
    if no_graph:
        return Tensor._from_data(data)

    def backward(grad):
        # Same expressions as the unfused matmul/row_softmax closures.
        grad_attn = grad @ v_data.T
        grad_v = attn.T @ grad
        inner = (grad_attn * attn).sum(axis=-1, keepdims=True)
        grad_scores = attn * (grad_attn - inner)
        grad_q = grad_scores @ k_data
        grad_k = grad_scores.T @ q_data
        return (grad_q, grad_k, grad_v)

    return Tensor._make(data, (query, key, value), backward)


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
@register("reshape")
def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _wrap(a)
    data = a.data.reshape(shape)
    if _no_graph(a):
        return Tensor._from_data(data)
    original = a.data.shape

    def backward(grad):
        return (grad.reshape(original),)

    return Tensor._make(data, (a,), backward)


@register("transpose")
def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = _wrap(a)
    data = np.transpose(a.data, axes)
    if _no_graph(a):
        return Tensor._from_data(data)
    inverse = None if axes is None else np.argsort(axes)

    def backward(grad):
        return (np.transpose(grad, inverse),)

    return Tensor._make(data, (a,), backward)


@register("getitem")
def getitem(a, index) -> Tensor:
    """Slicing/indexing. Backward scatters the gradient into a zero array.

    ``np.add.at`` is used so repeated indices (fancy indexing) accumulate
    correctly instead of overwriting.
    """
    a = _wrap(a)
    data = a.data[index]
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        return (full,)

    return Tensor._make(data, (a,), backward)


@register("concat")
def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if _no_graph(*tensors):
        return Tensor._from_data(data)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        pieces = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            pieces.append(grad[tuple(slicer)])
        return tuple(pieces)

    return Tensor._make(data, tuple(tensors), backward)


@register("stack")
def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    if _no_graph(*tensors):
        return Tensor._from_data(data)

    def backward(grad):
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(data, tuple(tensors), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
@register("sum")
def sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        if axis is None:
            return (np.broadcast_to(grad, a.shape).copy(),)
        g = grad
        if not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor._make(data, (a,), backward)


@register("mean")
def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    if _no_graph(a):
        return Tensor._from_data(data)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def backward(grad):
        if axis is None:
            return (np.broadcast_to(grad / count, a.shape).copy(),)
        g = grad
        if not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g / count, a.shape).copy(),)

    return Tensor._make(data, (a,), backward)


@register("max")
def max(a, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction. Ties split the gradient equally among the maxima."""
    a = _wrap(a)
    data = a.data.max(axis=axis, keepdims=keepdims)
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        expanded = data if axis is None or keepdims else np.expand_dims(data, axis=axis)
        mask = (a.data == expanded).astype(a.data.dtype)
        mask /= mask.sum(axis=axis, keepdims=True)
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (mask * g,)

    return Tensor._make(data, (a,), backward)


# ----------------------------------------------------------------------
# Elementwise nonlinearities
# ----------------------------------------------------------------------
@register("exp")
def exp(a) -> Tensor:
    a = _wrap(a)
    data = np.exp(a.data)
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        return (grad * data,)

    return Tensor._make(data, (a,), backward)


@register("log")
def log(a) -> Tensor:
    a = _wrap(a)
    data = np.log(a.data)
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        return (grad / a.data,)

    return Tensor._make(data, (a,), backward)


@register("sqrt")
def sqrt(a) -> Tensor:
    a = _wrap(a)
    data = np.sqrt(a.data)
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        return (grad / (2.0 * data),)

    return Tensor._make(data, (a,), backward)


@register("abs")
def abs(a) -> Tensor:
    a = _wrap(a)
    data = np.abs(a.data)
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        return (grad * np.sign(a.data),)

    return Tensor._make(data, (a,), backward)


@register("clip")
def clip(a, low: float | None = None, high: float | None = None) -> Tensor:
    """Clamp values; gradient is passed through only inside the range."""
    a = _wrap(a)
    data = np.clip(a.data, low, high)
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        mask = np.ones_like(a.data)
        if low is not None:
            mask *= a.data >= low
        if high is not None:
            mask *= a.data <= high
        return (grad * mask,)

    return Tensor._make(data, (a,), backward)


@register("relu")
def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0
    data = a.data * mask
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        return (grad * mask,)

    return Tensor._make(data, (a,), backward)


@register("elu")
def elu(a, alpha: float = 1.0) -> Tensor:
    """ELU, the PCG attention activation (sigma_2 in the paper, Eq. 11)."""
    a = _wrap(a)
    data = np.where(a.data > 0, a.data, alpha * (np.exp(np.minimum(a.data, 0.0)) - 1.0))
    if _no_graph(a):
        return Tensor._from_data(data)
    positive = a.data > 0

    def backward(grad):
        return (grad * np.where(positive, 1.0, data + alpha),)

    return Tensor._make(data, (a,), backward)


@register("sigmoid")
def sigmoid(a) -> Tensor:
    """Numerically stable logistic: exponentials only of non-positives."""
    a = _wrap(a)
    positive = a.data >= 0
    exp_neg = np.exp(np.where(positive, -a.data, a.data))  # always <= 1
    data = np.where(positive, 1.0 / (1.0 + exp_neg), exp_neg / (1.0 + exp_neg))
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        return (grad * data * (1.0 - data),)

    return Tensor._make(data, (a,), backward)


@register("tanh")
def tanh(a) -> Tensor:
    a = _wrap(a)
    data = np.tanh(a.data)
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        return (grad * (1.0 - data**2),)

    return Tensor._make(data, (a,), backward)


@register("softmax")
def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    The last-axis case — every attention row softmax — dispatches to the
    fused :func:`row_softmax` kernel.
    """
    a = _wrap(a)
    if axis == -1 or axis == a.data.ndim - 1:
        return row_softmax(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exped = np.exp(shifted)
    data = exped / exped.sum(axis=axis, keepdims=True)
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        inner = (grad * data).sum(axis=axis, keepdims=True)
        return (data * (grad - inner),)

    return Tensor._make(data, (a,), backward)


@register("masked_softmax")
def masked_softmax(a, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax restricted to positions where ``mask`` is truthy.

    Masked positions get probability exactly 0 and receive no gradient.
    Rows with an all-false mask produce an all-zero row (not NaN) so that
    isolated graph nodes are handled gracefully.
    """
    a = _wrap(a)
    mask = np.asarray(mask, dtype=bool)
    big_negative = -1e30  # finite stand-in for -inf; exp underflows to 0
    logits = np.where(mask, a.data, big_negative)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exped = np.exp(shifted) * mask
    denom = exped.sum(axis=axis, keepdims=True)
    safe_denom = np.where(denom > 0, denom, 1.0)
    data = exped / safe_denom
    if _no_graph(a):
        return Tensor._from_data(data)

    def backward(grad):
        inner = (grad * data).sum(axis=axis, keepdims=True)
        return (data * (grad - inner),)

    return Tensor._make(data, (a,), backward)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
@register("where")
def where(condition: np.ndarray, a, b) -> Tensor:
    """Elementwise select; ``condition`` is a plain boolean array."""
    a, b = _wrap_pair(a, b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)
    if _no_graph(a, b):
        return Tensor._from_data(data)

    def backward(grad):
        return (
            unbroadcast(grad * condition, a.shape),
            unbroadcast(grad * ~condition, b.shape),
        )

    return Tensor._make(data, (a, b), backward)


@register("maximum")
def maximum(a, b) -> Tensor:
    """Elementwise max of two tensors; ties send gradient to the first."""
    a, b = _wrap_pair(a, b)
    data = np.maximum(a.data, b.data)
    if _no_graph(a, b):
        return Tensor._from_data(data)
    take_a = a.data >= b.data

    def backward(grad):
        return (
            unbroadcast(grad * take_a, a.shape),
            unbroadcast(grad * ~take_a, b.shape),
        )

    return Tensor._make(data, (a, b), backward)


@register("minimum")
def minimum(a, b) -> Tensor:
    """Elementwise min of two tensors; ties send gradient to the first."""
    a, b = _wrap_pair(a, b)
    data = np.minimum(a.data, b.data)
    if _no_graph(a, b):
        return Tensor._from_data(data)
    take_a = a.data <= b.data

    def backward(grad):
        return (
            unbroadcast(grad * take_a, a.shape),
            unbroadcast(grad * ~take_a, b.shape),
        )

    return Tensor._make(data, (a, b), backward)


def dropout_mask(
    shape: tuple[int, ...], rate: float, rng: np.random.Generator, dtype=None
) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability ``rate``, else 1/(1-rate).

    The mask is materialised in ``dtype`` (backend default when None) so
    a ``float32`` forward is not upcast by its dropout multiply.
    """
    from repro import backend

    dtype = backend.resolve_dtype(dtype)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape, dtype=dtype)
    keep = rng.random(shape) >= rate
    return (keep / (1.0 - rate)).astype(dtype, copy=False)

"""Reverse-mode automatic differentiation on numpy arrays.

This subpackage is the deep-learning substrate of the reproduction: the
paper trains its models with PyTorch, which is unavailable offline, so we
implement a compatible tensor engine from scratch. ``Tensor`` wraps a
``numpy.ndarray`` and records the operations applied to it; calling
:meth:`Tensor.backward` walks the recorded graph in reverse topological
order and accumulates gradients, exactly as a framework autograd would.

The engine supports full numpy broadcasting. Gradients flowing back
through a broadcast are reduced with :func:`repro.tensor.ops.unbroadcast`
so that every parameter receives a gradient of its own shape.
"""

from repro.tensor.tensor import Tensor, inference_mode, is_grad_enabled, no_grad
from repro.tensor import ops
from repro.tensor.ops import (
    concat,
    stack,
    where,
    maximum,
    minimum,
    masked_softmax,
    linear,
    sparse_conv1x1,
    row_softmax,
    pairwise_scores,
    gated_fusion,
)

__all__ = [
    "Tensor",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "ops",
    "concat",
    "stack",
    "where",
    "maximum",
    "minimum",
    "masked_softmax",
    "linear",
    "sparse_conv1x1",
    "row_softmax",
    "pairwise_scores",
    "gated_fusion",
]

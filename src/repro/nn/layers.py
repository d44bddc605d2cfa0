"""Core layers: Linear, Conv1x1 (the flow-convolution kernel), Dropout.

``Conv1x1`` deserves a note: the paper applies 1x1 convolution kernels
across the *channel* (time) axis of stacked ``(k, n, n)`` flow tensors
(Eqs. 1-4). With a 1x1 spatial footprint the convolution degenerates to
a learned weighted sum over the channel axis plus a bias — which is how
we implement it, with identical math and gradients to a framework conv.
The stack arrives as the COO entries of a
:class:`repro.data.window.FlowWindow`, so the sum runs over its non-zero
cells only (:func:`repro.tensor.ops.sparse_conv1x1`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, ops

if TYPE_CHECKING:
    from repro.data.window import FlowWindow


class Linear(Module):
    """Affine map ``y = x @ W + b`` on the last axis."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear features must be positive")
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng), name="weight"
        )
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        # Fused matmul+bias: one op (and one graph node) instead of two.
        return ops.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Conv1x1(Module):
    """1x1 convolution over the channel axis of a ``(c, n, n)`` flow window.

    Computes ``out = sum_c W[c] * scale * x[c] + b`` where ``b`` has the
    shape of one channel, matching the paper's ``W in R^{1xk}`` and
    ``b in R^{n x n}`` parameterisation (Eqs. 1-4). ``x`` is a
    :class:`repro.data.window.FlowWindow`; ``scale`` is the input
    normalisation and ``relu=True`` fuses the activation.
    """

    def __init__(
        self,
        channels: int,
        field_shape: tuple[int, ...],
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if channels <= 0:
            raise ValueError("Conv1x1 needs at least one channel")
        rng = rng or np.random.default_rng()
        self.channels = channels
        self.field_shape = tuple(field_shape)
        self.weight = Parameter(init.xavier_uniform((channels,), rng), name="weight")
        self.bias = Parameter(init.zeros(self.field_shape), name="bias")

    def forward(self, x: FlowWindow, scale: float = 1.0, relu: bool = False) -> Tensor:
        if x.channels != self.channels:
            raise ValueError(
                f"expected {self.channels} channels, got window with shape {x.shape}"
            )
        if x.shape[1:] != self.field_shape:
            raise ValueError(
                f"expected field shape {self.field_shape}, got {x.shape[1:]}"
            )
        return ops.sparse_conv1x1(
            x.channel, x.index, x.count, self.weight, self.bias,
            scale=scale, relu=relu,
        )

    def __repr__(self) -> str:
        return f"Conv1x1(channels={self.channels}, field={self.field_shape})"


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    The mask generator is owned by the layer so repeated training runs
    with the same seed sample identical masks.
    """

    def __init__(self, rate: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return x
        mask = ops.dropout_mask(x.shape, self.rate, self._rng, dtype=x.data.dtype)
        return x * Tensor(mask, dtype=x.data.dtype)

    def __repr__(self) -> str:
        return f"Dropout(rate={self.rate})"

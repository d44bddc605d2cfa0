"""Activation modules wrapping the functional ops in :mod:`repro.tensor.ops`."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import Tensor


class ReLU(Module):
    """Rectified linear unit — sigma_1 in the paper's flow convolution."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class ELU(Module):
    """Exponential linear unit — sigma_2 in the paper's PCG attention."""

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        self.alpha = alpha

    def forward(self, x: Tensor) -> Tensor:
        return x.elu(self.alpha)

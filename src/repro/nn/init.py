"""Weight initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so that
every model in the repo is exactly reproducible from a seed — a
requirement for the benchmark harness, which compares methods trained
from identical initial conditions.

Parameters are created in ``float64``; ``Module.to`` casts a built
model to another precision.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform init, suited to tanh/sigmoid/linear layers."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Fan-in/fan-out for a weight of arbitrary rank.

    For rank-1 weights (e.g. the 1x1 convolution kernels of the flow
    convolution, shape ``(k,)``) both fans equal the length.
    """
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive

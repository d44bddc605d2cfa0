"""Global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter


def clip_grad_norm(parameters: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clip norm, useful for monitoring training stability.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for grad in grads:
        # Flat BLAS dot: no grad-sized ``grad * grad`` temporary.
        flat = np.ravel(grad)
        total += float(np.dot(flat, flat))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm

"""Adam optimizer [Kingma & Ba, 2014] — the paper's training optimizer.

Only the learning rate is settable (the paper tunes it, Sec. VII-C);
the moment decays and the denominator guard are Kingma & Ba's
defaults, the module constants ``BETA1``, ``BETA2`` and ``EPS``, and
there is no weight decay.

The update is fused into in-place numpy ops over one preallocated
scratch view: no ``m_hat``/``v_hat``/``sqrt`` temporaries are
materialised per parameter per step. The math is unchanged (identical
up to float rounding of the reassociated ``lr / bias`` factors):

    m_hat = m / (1 - beta1^t);  v_hat = v / (1 - beta2^t)
    param -= lr * m_hat / (sqrt(v_hat) + eps)
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with bias-corrected first/second moment estimates."""

    def __init__(self, parameters: list[Parameter], lr: float = 0.01) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Flat scratch pool keyed by dtype, so a float32-cast model gets
        # a matching buffer. Sized for the largest parameter once;
        # per-step updates then allocate nothing.
        self._max_size = max(p.data.size for p in self.parameters)
        self._scratch: dict[np.dtype, np.ndarray] = {}

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def _scratch_view(self, param: Parameter) -> np.ndarray:
        """A scratch view shaped like ``param`` (contents undefined)."""
        dtype = param.data.dtype
        flat = self._scratch.get(dtype)
        if flat is None:
            flat = np.empty(self._max_size, dtype=dtype)
            self._scratch[dtype] = flat
        return flat[: param.data.size].reshape(param.data.shape)

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - BETA1 ** self._step_count
        bias2 = 1.0 - BETA2 ** self._step_count
        sqrt_bias2 = np.sqrt(bias2)
        step_scale = self.lr / bias1
        one_minus_beta1 = 1.0 - BETA1
        one_minus_beta2 = 1.0 - BETA2
        for param, m, v in zip(self.parameters, self._m, self._v):
            grad = param.grad
            if grad is None:
                continue
            scratch = self._scratch_view(param)
            # First moment: m = beta1 * m + (1 - beta1) * grad.
            m *= BETA1
            np.multiply(grad, one_minus_beta1, out=scratch)
            m += scratch
            # Second moment: v = beta2 * v + (1 - beta2) * grad^2.
            v *= BETA2
            np.multiply(grad, grad, out=scratch)
            scratch *= one_minus_beta2
            v += scratch
            # param -= (lr / bias1) * m / (sqrt(v) / sqrt(bias2) + eps).
            np.sqrt(v, out=scratch)
            scratch /= sqrt_bias2
            scratch += EPS
            np.divide(m, scratch, out=scratch)
            scratch *= step_scale
            param.data -= scratch

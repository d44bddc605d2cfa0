"""The compute backend: supported dtypes, op dispatch, buffers.

This package is the seam between the numerical substrate and everything
built on it. Primitive ops register themselves in
:mod:`repro.backend.registry`, and :func:`asarray` is where raw operands
acquire a dtype.

Dtype rule: ops follow their inputs; ``model.to`` picks the precision.
Every op computes in the dtype of its inputs and allocates its own
output, so there is no ambient dtype to scope. A model cast with
``model.to(np.float32)`` runs single precision under plain
``no_grad()``; training stays ``float64`` (``Trainer.fit`` refuses any
other model), and raw values with no dtype become ``float64``.

:mod:`repro.backend.pool` (``BufferPool``, ``buffer_scope``) has no op
that draws from it; it stays importable for the perfbench harness.
"""

from repro.backend.backend import SUPPORTED_DTYPES, asarray, resolve_dtype
from repro.backend.pool import BufferPool, active_pool, buffer_scope
from repro.backend.registry import get_op, has_op, list_ops, override, register

__all__ = [
    "SUPPORTED_DTYPES",
    "asarray",
    "resolve_dtype",
    "BufferPool",
    "active_pool",
    "buffer_scope",
    "register",
    "override",
    "get_op",
    "has_op",
    "list_ops",
]

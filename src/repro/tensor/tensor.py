"""The ``Tensor`` class: a numpy array with reverse-mode autodiff.

Every differentiable operation returns a new ``Tensor`` holding a
``_backward`` closure and references to its parent tensors. Calling
:meth:`Tensor.backward` on a scalar result topologically sorts the graph
and invokes the closures in reverse order, accumulating ``.grad`` on
every tensor created with ``requires_grad=True``.

Grad modes
----------
Ops check the grad flag *before* building their backward closure, so a
disabled graph costs no closure or parent-tuple allocation — the forward
is a plain numpy expression plus one lightweight ``Tensor`` wrapper.
:func:`no_grad` disables recording (the torch semantics);
:func:`inference_mode` is the same context manager under a second name
for serving paths. The flag ``_GRAD_ENABLED`` is the only process global
an op reads.

Dtypes: ops follow their inputs; ``model.to`` picks the precision. An op
result keeps the dtype its numpy expression produces, raw python
scalars/sequences entering an op take the dtype of the tensor they
combine with, and ``Tensor(raw)`` is ``float64`` unless the caller names
a dtype.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import backend

# Global switch mirroring torch.no_grad(): when False, no graph is recorded.
_GRAD_ENABLED = True

# Monotone creation-sequence counter. Every op output is created *after*
# its parents, so descending creation order is a topological order of any
# recorded graph — ``backward`` sorts reachable nodes by this key instead
# of running a post-order DFS per call. The tape order is, in effect, a
# topological order cached at graph-construction time: rebuilding the
# same-shaped graph for the next training sample pays only the counter
# increment, never a re-derivation of the ordering.
_SEQ_COUNTER = itertools.count(1)
_SEQ_KEY = operator.attrgetter("_seq")


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph recording (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


#: Serving-path name for :func:`no_grad`; the two are the same object.
inference_mode = no_grad


class Tensor:
    """A numpy-backed tensor that tracks gradients.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts. Stored as ``float64`` (the
        precision gradient checks need) unless ``dtype`` names another.
    requires_grad:
        If True, ``backward`` accumulates this tensor's gradient into
        ``self.grad``.
    dtype:
        Explicit dtype for this tensor (``float32`` or ``float64``).
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
        "_seq",
        "_grad_buffer",
    )

    def __init__(
        self,
        data: "np.ndarray | float | int | Sequence",
        requires_grad: bool = False,
        name: str | None = None,
        dtype: "str | np.dtype | type | None" = None,
    ) -> None:
        self.data = backend.asarray(data, dtype)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name
        self._seq = next(_SEQ_COUNTER)
        self._grad_buffer: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        from repro.tensor import ops

        return ops.transpose(self)

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor._from_data(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _from_data(data: np.ndarray) -> "Tensor":
        """Wrap an op result without dtype coercion or graph wiring.

        The forward-only fast path and all op results come through here:
        ``data`` keeps whatever dtype the numpy expression produced, so a
        ``float32`` graph stays ``float32`` end to end.
        """
        out = object.__new__(Tensor)
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        out.requires_grad = False
        out.grad = None
        out._backward = None
        out._parents = ()
        out.name = None
        out._seq = 0
        out._grad_buffer = None
        return out

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op result wired into the graph (if grad is enabled)."""
        out = Tensor._from_data(data)
        if _GRAD_ENABLED:
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = parents
                    out._backward = backward
                    out._seq = next(_SEQ_COUNTER)
                    break
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad``.

        The first accumulation after :meth:`zero_grad` writes into a
        persistent per-tensor buffer instead of allocating
        ``zeros_like`` + ``+=`` — for model parameters this makes the
        training loop's leaf-gradient accumulation allocation-free after
        the first step. The buffer is reused across steps, so ``.grad``
        is only stable until the next backward pass (copy it to keep it).
        """
        if self.grad is None:
            buffer = self._grad_buffer
            if (
                buffer is None
                or buffer.shape != self.data.shape
                or buffer.dtype != self.data.dtype
            ):
                buffer = np.empty_like(self.data)
                self._grad_buffer = buffer
            np.copyto(buffer, grad)
            self.grad = buffer
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient (the grad buffer is retained)."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient. Defaults to 1 and is only optional for
            scalar tensors, matching the usual framework convention.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
            )

        if self._backward is None:
            # Root is itself a leaf: nothing to walk.
            self._accumulate(grad)
            return

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        # Ids whose accumulated gradient array is exclusively owned by
        # this backward pass (freshly allocated by a fan-in sum below).
        # Only owned arrays are mutated in place; closure-returned arrays
        # may alias forward data or the upstream gradient and must never
        # be written to.
        owned: set[int] = set()
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is not None:
                # Interior node: the closure pushes gradients to parents
                # through the shared dict (leaf parents accumulate into
                # .grad directly and are never enqueued here).
                node._backward_dispatch(node_grad, grads, owned)

    def _backward_dispatch(
        self, grad: np.ndarray, grads: dict[int, np.ndarray], owned: set[int]
    ) -> None:
        """Run the op's backward closure, accumulating into ``grads``.

        Fan-in accumulation allocates exactly one array per node (on the
        second contribution); further contributions are added in place
        into that owned array instead of ``grad = grad + ...`` churn.
        """
        parent_grads = self._backward(grad)  # type: ignore[misc]
        for parent, parent_grad in zip(self._parents, parent_grads):
            if parent_grad is None or not parent.requires_grad:
                continue
            if parent._backward is None:
                # Leaf: skip the ordering dict and add straight into
                # .grad (same chronological fan-in order; _accumulate
                # copies the first contribution, so aliased closure
                # arrays are never mutated).
                parent._accumulate(parent_grad)
                continue
            key = id(parent)
            existing = grads.get(key)
            if existing is None:
                grads[key] = parent_grad
            elif key in owned:
                # Re-store: scalar (0-d) sums are numpy scalars, for
                # which += rebinds instead of mutating in place.
                existing += parent_grad
                grads[key] = existing
            else:
                grads[key] = existing + parent_grad
                owned.add(key)

    # ------------------------------------------------------------------
    # Operator overloads (implemented in ops.py to keep this file lean)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro.tensor import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from repro.tensor import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from repro.tensor import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from repro.tensor import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.tensor import ops

        return ops.div(self, other)

    def __rtruediv__(self, other):
        from repro.tensor import ops

        return ops.div(other, self)

    def __neg__(self):
        from repro.tensor import ops

        return ops.neg(self)

    def __pow__(self, exponent: float):
        from repro.tensor import ops

        return ops.pow(self, exponent)

    def __matmul__(self, other):
        from repro.tensor import ops

        return ops.matmul(self, other)

    def __getitem__(self, index):
        from repro.tensor import ops

        return ops.getitem(self, index)

    # Convenience method forms -----------------------------------------
    def matmul(self, other):
        from repro.tensor import ops

        return ops.matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops

        return ops.max(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.tensor import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, axes=None):
        from repro.tensor import ops

        return ops.transpose(self, axes)

    def exp(self):
        from repro.tensor import ops

        return ops.exp(self)

    def log(self):
        from repro.tensor import ops

        return ops.log(self)

    def sqrt(self):
        from repro.tensor import ops

        return ops.sqrt(self)

    def abs(self):
        from repro.tensor import ops

        return ops.abs(self)

    def relu(self):
        from repro.tensor import ops

        return ops.relu(self)

    def elu(self, alpha: float = 1.0):
        from repro.tensor import ops

        return ops.elu(self, alpha)

    def sigmoid(self):
        from repro.tensor import ops

        return ops.sigmoid(self)

    def tanh(self):
        from repro.tensor import ops

        return ops.tanh(self)

    def softmax(self, axis: int = -1):
        from repro.tensor import ops

        return ops.softmax(self, axis=axis)

    def clip(self, low: float | None = None, high: float | None = None):
        from repro.tensor import ops

        return ops.clip(self, low, high)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Return interior nodes reachable from ``root`` in reverse
    topological order.

    Single-pass iterative reachability (graphs built by K-layer GNNs over
    hundreds of time slots can exceed python's recursion limit) followed
    by a C-level sort on the creation sequence number. Ops create their
    output strictly after their parents, so descending ``_seq`` is a
    valid topological order — the post-order bookkeeping the seed's
    two-phase DFS paid per backward call is precomputed at graph
    construction. Leaves (no backward closure) are excluded: the
    dispatch loop accumulates their gradients directly, so they need
    neither ordering nor dict traffic.
    """
    nodes: list[Tensor] = [root]
    visited: set[int] = {id(root)}
    stack: list[Tensor] = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent._backward is not None:
                key = id(parent)
                if key not in visited:
                    visited.add(key)
                    nodes.append(parent)
                    stack.append(parent)
    nodes.sort(key=_SEQ_KEY, reverse=True)
    return nodes


def _raise_item() -> float:
    raise ValueError("item() requires a single-element tensor")

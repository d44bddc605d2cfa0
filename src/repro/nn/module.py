"""Module/Parameter system, the backbone of every model in the repo.

Mirrors the familiar ``torch.nn.Module`` contract: parameters and child
modules registered as attributes are discovered automatically, state
dicts round-trip through plain dicts of numpy arrays, and train/eval
mode toggles propagate down the module tree.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro import backend
from repro.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a learnable model parameter (always requires grad)."""

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; ``parameters()`` and ``named_parameters()`` walk the tree.
    """

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child under an explicit name (for module lists)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of scalar learnable parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Training state
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        # Iterative walk with direct dict writes: the recursive generator
        # chain plus the registration __setattr__ cost O(n * depth) per
        # toggle, noticeable when serving flips eval/train per slot.
        stack: list[Module] = [self]
        while stack:
            module = stack.pop()
            module.__dict__["training"] = mode
            stack.extend(module._modules.values())
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def to(self, dtype: "str | np.dtype | type") -> "Module":
        """Cast every parameter to ``dtype`` in place (torch's ``.to``).

        This is the one precision switch: ops follow their inputs, so
        after ``model.to(np.float32)`` a forward under ``no_grad()`` runs
        in single precision end to end. Cast back to ``float64`` before
        resuming training (``Trainer.fit`` refuses any other dtype; the
        round trip truncates mantissas — keep a ``state_dict`` snapshot
        when exact resumption matters). Accumulated gradients are
        dropped, not cast.
        """
        resolved = backend.resolve_dtype(dtype)
        for param in self.parameters():
            param.data = param.data.astype(resolved, copy=False)
            param.grad = None
        return self

    @property
    def param_dtype(self) -> np.dtype:
        """Dtype of the module's parameters (``float64`` if none)."""
        for param in self.parameters():
            return param.data.dtype
        return np.dtype(np.float64)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot all parameters as copied numpy arrays."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            # Preserve the module's current dtype: a float32-cast model
            # loading a float64 checkpoint stays float32, and vice versa.
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"parameter {name!r}: shape {value.shape} != expected {param.data.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_names = ", ".join(self._modules)
        return f"{type(self).__name__}({child_names})"


class ModuleList(Module):
    """A list of submodules, each registered for parameter discovery."""

    def __init__(self, modules: list[Module] | None = None) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        self.register_module(str(len(self._items)), module)
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

"""Op-level profiler for the tensor/backend substrate.

``with profile() as prof:`` instruments every primitive registered in
:mod:`repro.backend.registry` — which is exactly the set of tensor ops,
including the fused hot-path kernels — and reports per-op call counts,
wall time and bytes produced for everything dispatched inside the block.

Zero steady-state cost by construction
--------------------------------------
The ops are ordinary module-level functions that layers call directly
(the registry is a dispatch *seam*, not a dispatch *path*), so there is
no always-on hook to pay for. Instead, :func:`profile` swaps the op
functions for timing wrappers at entry and restores the originals at
exit, in two places:

* the backend registry itself (:func:`repro.backend.registry.override`),
  so registry-routed callers and introspection see the wrappers;
* every ``repro.*`` module global bound to an op function — this covers
  ``repro.tensor.ops`` (through which all ``Tensor`` operator overloads
  dispatch), the ``repro.tensor`` package re-exports, and any
  ``from repro.tensor import linear``-style binding in the layers.

Counting semantics: each wrapper invocation is one *dispatched op*. Ops
that internally dispatch another registered op (``softmax`` routing its
last-axis case to ``row_softmax``) count both, because both genuinely
ran. Backward closures execute raw numpy and are deliberately invisible
— the profiler measures the op surface, not its gradient arithmetic.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.backend import registry as _registry

#: Ops that are fused multi-op kernels; their share of total dispatches
#: is the fused-op coverage ratio reported by :meth:`OpProfile.fused_coverage`.
FUSED_OPS = frozenset(
    {"linear", "sparse_conv1x1", "row_softmax", "pairwise_scores", "gated_fusion",
     "joint_rmse", "sdp_attention"}
)


@dataclass(slots=True)
class OpStat:
    """Aggregate statistics for one op inside a profiled block."""

    calls: int = 0
    seconds: float = 0.0
    bytes: int = 0  # total nbytes of the arrays the op produced


@dataclass(slots=True)
class OpProfile:
    """Result object yielded by :func:`profile`; fills in as ops run."""

    stats: dict[str, OpStat] = field(default_factory=dict)

    @property
    def total_calls(self) -> int:
        return sum(stat.calls for stat in self.stats.values())

    @property
    def total_seconds(self) -> float:
        return sum(stat.seconds for stat in self.stats.values())

    @property
    def total_bytes(self) -> int:
        return sum(stat.bytes for stat in self.stats.values())

    def fused_coverage(self) -> float:
        """Fraction of dispatched ops that were fused kernels (0 if none ran)."""
        total = self.total_calls
        if not total:
            return 0.0
        fused = sum(stat.calls for name, stat in self.stats.items()
                    if name in FUSED_OPS)
        return fused / total

    def to_dict(self) -> dict:
        """JSON-serialisable form (embedded in run reports)."""
        return {
            "ops": {
                name: {"calls": s.calls, "seconds": s.seconds, "bytes": s.bytes}
                for name, s in sorted(self.stats.items())
            },
            "total_calls": self.total_calls,
            "total_seconds": self.total_seconds,
            "total_bytes": self.total_bytes,
            "fused_coverage": self.fused_coverage(),
        }

    def table(self, limit: int | None = None) -> str:
        """Fixed-width text table, most expensive ops first."""
        rows = sorted(self.stats.items(), key=lambda kv: kv[1].seconds,
                      reverse=True)
        if limit is not None:
            rows = rows[:limit]
        lines = [f"{'op':<18} {'calls':>8} {'seconds':>10} {'MB':>9} {'fused':>6}"]
        for name, stat in rows:
            lines.append(
                f"{name:<18} {stat.calls:>8} {stat.seconds:>10.4f} "
                f"{stat.bytes / 1e6:>9.2f} {'yes' if name in FUSED_OPS else '':>6}"
            )
        lines.append(
            f"{'total':<18} {self.total_calls:>8} {self.total_seconds:>10.4f} "
            f"{self.total_bytes / 1e6:>9.2f} "
            f"{self.fused_coverage() * 100:>5.1f}%"
        )
        return "\n".join(lines)


def _make_wrapper(name: str, fn: Callable, profile_: OpProfile) -> Callable:
    stat = profile_.stats.setdefault(name, OpStat())
    perf_counter = time.perf_counter

    def wrapper(*args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        stat.seconds += perf_counter() - start
        stat.calls += 1
        data = getattr(out, "data", None)
        if data is not None:
            stat.bytes += data.nbytes
        return out

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__wrapped__ = fn
    return wrapper


_ACTIVE = False


@contextlib.contextmanager
def profile() -> Iterator[OpProfile]:
    """Instrument every registered op for the duration of the block.

    Not reentrant — nesting profiles would double-count every dispatch —
    and not thread-safe (it swaps module globals, like everything else
    in this single-threaded substrate).
    """
    global _ACTIVE
    if _ACTIVE:
        raise RuntimeError("profile() does not nest")

    prof = OpProfile()
    originals = {name: _registry.get_op(name) for name in _registry.list_ops()}
    by_id = {id(fn): name for name, fn in originals.items()}
    wrappers = {name: _make_wrapper(name, fn, prof)
                for name, fn in originals.items()}

    # Swap in the wrappers: registry seam first, then every repro module
    # global that holds one of the original function objects.
    rebound: list[tuple[object, str, Callable]] = []
    for name, wrapper in wrappers.items():
        _registry.override(name, wrapper)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            op_name = by_id.get(id(value))
            if op_name is not None:
                setattr(module, attr, wrappers[op_name])
                rebound.append((module, attr, originals[op_name]))

    _ACTIVE = True
    try:
        yield prof
    finally:
        _ACTIVE = False
        for name, fn in originals.items():
            _registry.override(name, fn)
        for module, attr, fn in rebound:
            setattr(module, attr, fn)
        # Drop ops that never ran so reports list only what executed.
        for name in [n for n, s in prof.stats.items() if not s.calls]:
            del prof.stats[name]

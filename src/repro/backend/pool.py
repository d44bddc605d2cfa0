"""Shape/dtype-keyed scratch-buffer pool (no op draws from it).

Every op allocates its own output; a serving forward with a pool was
bitwise equal to one without and no faster. This module stays
importable only because the perfbench harness (``perfbench/run.py``,
``perfbench/layers.py``) still opens ``buffer_scope`` around forwards
and reports a pool hit rate, which now reads 0. It goes when that
harness stops calling it.

Safety model — buffers handed out stay **in use** until
:meth:`BufferPool.release_all`, so two takers inside one scope can
never alias each other's output; reuse only happens *across* scopes.
Returned buffers are uninitialised (``np.empty`` semantics).
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from repro.backend import backend


class BufferPool:
    """Shape/dtype-keyed free lists of reusable scratch arrays.

    Reuse statistics are first-class: ``takes`` (total requests),
    ``hits`` (served from a free list), ``misses`` (fresh allocations)
    and ``peak_outstanding`` (high-water mark of simultaneously held
    buffers) make pool efficiency inspectable — ``repr(pool)`` or
    :meth:`stats` — without attaching a profiler.
    """

    __slots__ = ("_free", "_in_use", "hits", "misses", "peak_outstanding")

    def __init__(self) -> None:
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._in_use: list[np.ndarray] = []
        self.hits = 0
        self.misses = 0
        self.peak_outstanding = 0

    def take(self, shape: tuple[int, ...], dtype=None) -> np.ndarray:
        """A scratch array of ``shape``/``dtype`` with undefined contents."""
        dtype = backend.resolve_dtype(dtype)
        key = (tuple(shape), dtype)
        free = self._free.get(key)
        if free:
            self.hits += 1
            buffer = free.pop()
        else:
            self.misses += 1
            buffer = np.empty(shape, dtype=dtype)
        self._in_use.append(buffer)
        if len(self._in_use) > self.peak_outstanding:
            self.peak_outstanding = len(self._in_use)
        return buffer

    def take_like(self, array: np.ndarray) -> np.ndarray:
        """A scratch array matching ``array``'s shape and dtype."""
        return self.take(array.shape, array.dtype)

    def release_all(self) -> None:
        """Return every outstanding buffer to the free lists."""
        for buffer in self._in_use:
            self._free.setdefault((buffer.shape, buffer.dtype), []).append(buffer)
        self._in_use.clear()

    def clear(self) -> None:
        """Drop all buffers (frees the memory; outstanding takes unaffected)."""
        self._free.clear()
        self._in_use.clear()

    @property
    def outstanding(self) -> int:
        return len(self._in_use)

    @property
    def takes(self) -> int:
        """Total buffer requests served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of takes served without allocating (0 when unused)."""
        takes = self.takes
        return self.hits / takes if takes else 0.0

    def stats(self) -> dict[str, int | float]:
        """Reuse statistics as a plain dict (run-report friendly)."""
        return {
            "takes": self.takes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "outstanding": self.outstanding,
            "peak_outstanding": self.peak_outstanding,
        }

    def __repr__(self) -> str:
        return (
            f"BufferPool(takes={self.takes}, hits={self.hits}, "
            f"misses={self.misses}, outstanding={self.outstanding}, "
            f"peak_outstanding={self.peak_outstanding})"
        )


_ACTIVE_POOL: BufferPool | None = None


def active_pool() -> BufferPool | None:
    """The innermost ``buffer_scope``'s pool, or None outside a scope."""
    return _ACTIVE_POOL


@contextlib.contextmanager
def buffer_scope(pool: BufferPool | None = None) -> Iterator[BufferPool]:
    """Activate ``pool`` (or a throwaway one) for the ``with`` block.

    On exit every buffer taken inside the block is released for reuse by
    the next scope over the same pool instance. Scopes nest: the inner
    scope's pool shadows the outer one.
    """
    global _ACTIVE_POOL
    previous = _ACTIVE_POOL
    _ACTIVE_POOL = pool if pool is not None else BufferPool()
    try:
        yield _ACTIVE_POOL
    finally:
        _ACTIVE_POOL.release_all()
        _ACTIVE_POOL = previous

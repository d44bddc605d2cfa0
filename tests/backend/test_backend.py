"""The compute backend: dtype resolution, coercion, op registry, buffers."""

import numpy as np
import pytest

from repro import backend
from repro.backend import registry
from repro.backend.pool import BufferPool, active_pool, buffer_scope
from repro.nn import Linear
from repro.tensor import Tensor


class TestDtypePolicy:
    def test_default_is_float64(self):
        """With no ambient dtype, raw values and fresh parameters are
        float64 unless a dtype is named."""
        assert backend.asarray(np.ones(3, dtype=np.float32)).dtype == np.float64
        assert Tensor(np.ones(3, dtype=np.float32)).dtype == np.float64
        assert Linear(3, 2, rng=np.random.default_rng(0)).param_dtype == np.float64

    def test_resolve_none_returns_default(self):
        assert backend.resolve_dtype(None) == np.float64

    @pytest.mark.parametrize("spec", ["float32", np.float32, np.dtype(np.float32)])
    def test_resolve_spellings(self, spec):
        assert backend.resolve_dtype(spec) == np.float32

    @pytest.mark.parametrize("bad", ["int32", np.int64, "float16", "complex128"])
    def test_unsupported_dtype_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            backend.resolve_dtype(bad)



class TestAllocators:
    def test_asarray_casts_to_default(self):
        assert backend.asarray([1, 2, 3]).dtype == np.float64

    def test_asarray_explicit_dtype(self):
        assert backend.asarray(1.5, dtype="float32").dtype == np.float32


class TestRegistry:
    def test_core_ops_registered(self):
        for name in ("add", "matmul", "relu", "linear", "row_softmax"):
            assert registry.has_op(name), name

    def test_get_unknown_op_raises(self):
        with pytest.raises(KeyError):
            registry.get_op("definitely-not-an-op")

    def test_double_registration_rejected(self):
        with pytest.raises(ValueError):
            registry.register("add")(lambda: None)

    def test_override_swaps_and_restores(self):
        def fake(*args, **kwargs):
            raise AssertionError("should not be called")

        original = registry.override("relu", fake)
        try:
            assert registry.get_op("relu") is fake
        finally:
            registry.override("relu", original)
        assert registry.get_op("relu") is original

    def test_override_unknown_op_raises(self):
        with pytest.raises(KeyError):
            registry.override("definitely-not-an-op", lambda: None)

    def test_list_ops_sorted(self):
        ops = registry.list_ops()
        assert ops == sorted(ops)
        assert len(ops) == len(set(ops))


class TestBufferPool:
    def test_take_allocates_shape_and_dtype(self):
        pool = BufferPool()
        buffer = pool.take((3, 4), np.float32)
        assert buffer.shape == (3, 4)
        assert buffer.dtype == np.float32
        assert pool.misses == 1 and pool.hits == 0
        assert pool.outstanding == 1

    def test_no_reuse_within_scope(self):
        pool = BufferPool()
        a = pool.take((2, 2))
        b = pool.take((2, 2))
        assert a is not b

    def test_reuse_across_release(self):
        pool = BufferPool()
        a = pool.take((2, 2))
        pool.release_all()
        assert pool.outstanding == 0
        b = pool.take((2, 2))
        assert b is a
        assert pool.hits == 1

    def test_dtype_keys_distinct(self):
        pool = BufferPool()
        pool.take((2, 2), np.float64)
        pool.release_all()
        other = pool.take((2, 2), np.float32)
        assert other.dtype == np.float32
        assert pool.misses == 2

    def test_clear_drops_free_list(self):
        pool = BufferPool()
        a = pool.take((2, 2))
        pool.release_all()
        pool.clear()
        b = pool.take((2, 2))
        assert b is not a

    def test_buffer_scope_activates_and_releases(self):
        pool = BufferPool()
        assert active_pool() is None
        with buffer_scope(pool) as active:
            assert active is pool
            assert active_pool() is pool
            pool.take((3,))
            assert pool.outstanding == 1
        assert active_pool() is None
        assert pool.outstanding == 0

    def test_buffer_scope_nesting(self):
        outer, inner = BufferPool(), BufferPool()
        with buffer_scope(outer):
            with buffer_scope(inner):
                assert active_pool() is inner
            assert active_pool() is outer
        assert active_pool() is None

    def test_default_scope_makes_throwaway_pool(self):
        with buffer_scope() as pool:
            assert isinstance(pool, BufferPool)
            assert active_pool() is pool
        assert active_pool() is None


class TestBufferPoolStats:
    def test_takes_and_hit_rate(self):
        pool = BufferPool()
        assert pool.takes == 0
        assert pool.hit_rate == 0.0
        pool.take((2, 2))
        pool.release_all()
        pool.take((2, 2))
        pool.take((3, 3))
        assert pool.takes == 3
        assert pool.hits == 1 and pool.misses == 2
        assert pool.hit_rate == pytest.approx(1 / 3)

    def test_peak_outstanding_high_water_mark(self):
        pool = BufferPool()
        pool.take((2,))
        pool.take((2,))
        pool.take((2,))
        assert pool.peak_outstanding == 3
        pool.release_all()
        pool.take((2,))
        # The mark is a high-water mark: release does not lower it.
        assert pool.outstanding == 1
        assert pool.peak_outstanding == 3

    def test_stats_dict(self):
        pool = BufferPool()
        pool.take((2, 2))
        pool.release_all()
        pool.take((2, 2))
        assert pool.stats() == {
            "takes": 2,
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
            "outstanding": 1,
            "peak_outstanding": 1,
        }

    def test_repr_carries_reuse_statistics(self):
        pool = BufferPool()
        pool.take((2, 2))
        pool.release_all()
        pool.take((2, 2))
        assert repr(pool) == (
            "BufferPool(takes=2, hits=1, misses=1, "
            "outstanding=1, peak_outstanding=1)"
        )

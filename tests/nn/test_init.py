"""Weight initializers: bounds, determinism, fan computation."""

import numpy as np

from repro.nn import init


class TestXavier:
    def test_bound(self):
        w = init.xavier_uniform((100, 50), np.random.default_rng(0))
        bound = np.sqrt(6.0 / 150)
        assert np.abs(w).max() <= bound

    def test_deterministic(self):
        w1 = init.xavier_uniform((5, 5), np.random.default_rng(3))
        w2 = init.xavier_uniform((5, 5), np.random.default_rng(3))
        np.testing.assert_allclose(w1, w2)

    def test_rank1_weight(self):
        w = init.xavier_uniform((16,), np.random.default_rng(0))
        assert w.shape == (16,)
        assert np.abs(w).max() <= np.sqrt(6.0 / 32)

    def test_gain_scales_bound(self):
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        w1 = init.xavier_uniform((4, 4), rng1, gain=1.0)
        w2 = init.xavier_uniform((4, 4), rng2, gain=2.0)
        np.testing.assert_allclose(w2, 2.0 * w1)


class TestZeros:
    def test_zeros(self):
        np.testing.assert_allclose(init.zeros((3, 3)), np.zeros((3, 3)))

"""Layers: Linear, Conv1x1 (vs manual math), Dropout."""

import numpy as np
import pytest

from repro.data.window import FlowWindow
from repro.nn import Conv1x1, Dropout, Linear
from repro.tensor import Tensor


class TestLinear:
    def test_forward_matches_manual(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(5, 3))
        out = layer(Tensor(x))
        np.testing.assert_allclose(out.data, x @ layer.weight.data + layer.bias.data)

    def test_no_bias(self, rng):
        layer = Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            Linear(0, 2)

    def test_gradients_flow_to_both_params(self, rng):
        layer = Linear(3, 2, rng=rng)
        layer(Tensor(rng.normal(size=(4, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_deterministic_from_seed(self):
        l1 = Linear(3, 2, rng=np.random.default_rng(9))
        l2 = Linear(3, 2, rng=np.random.default_rng(9))
        np.testing.assert_allclose(l1.weight.data, l2.weight.data)


class TestConv1x1:
    def test_forward_is_channel_weighted_sum(self, rng):
        conv = Conv1x1(channels=4, field_shape=(3, 3), rng=rng)
        x = rng.poisson(1.0, size=(4, 3, 3)).astype(float)
        out = conv(FlowWindow.from_dense(x), scale=0.5)
        expected = (
            np.tensordot(conv.weight.data, 0.5 * x, axes=(0, 0)) + conv.bias.data
        )
        np.testing.assert_allclose(out.data, expected)

    def test_wrong_channel_count_rejected(self, rng):
        conv = Conv1x1(channels=4, field_shape=(3, 3), rng=rng)
        with pytest.raises(ValueError):
            conv(FlowWindow.from_dense(np.zeros((5, 3, 3))))

    def test_wrong_field_shape_rejected(self, rng):
        conv = Conv1x1(channels=4, field_shape=(3, 3), rng=rng)
        with pytest.raises(ValueError):
            conv(FlowWindow.from_dense(np.zeros((4, 2, 2))))

    def test_gradcheck_weight(self, rng):
        conv = Conv1x1(channels=3, field_shape=(2, 2), rng=rng)
        x = rng.poisson(2.0, size=(3, 2, 2)).astype(float)
        conv(FlowWindow.from_dense(x), scale=0.25).sum().backward()
        # d(sum)/dW[c] = scale * sum of channel c of x.
        np.testing.assert_allclose(
            conv.weight.grad, 0.25 * x.sum(axis=(1, 2)), atol=1e-10
        )
        np.testing.assert_allclose(conv.bias.grad, np.ones((2, 2)))

    def test_needs_positive_channels(self):
        with pytest.raises(ValueError):
            Conv1x1(channels=0, field_shape=(2, 2))


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.eval()
        x = Tensor(rng.normal(size=(10, 10)))
        np.testing.assert_allclose(layer(x).data, x.data)

    def test_training_zeros_roughly_rate(self, rng):
        layer = Dropout(0.4, rng=rng)
        out = layer(Tensor(np.ones((200, 200))))
        zero_fraction = (out.data == 0).mean()
        assert zero_fraction == pytest.approx(0.4, abs=0.02)

    def test_scaling_preserves_expectation(self, rng):
        layer = Dropout(0.4, rng=rng)
        out = layer(Tensor(np.ones((300, 300))))
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_rate_zero_identity_even_in_training(self, rng):
        layer = Dropout(0.0, rng=rng)
        x = Tensor(np.ones((4, 4)))
        assert layer(x) is x

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

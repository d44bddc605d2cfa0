"""Flow convolution (Eqs. 1-9): shapes, fusion semantics, dynamics."""

import numpy as np
import pytest

from repro.data.window import FlowWindow
from repro.graphs import FlowConvolution
from repro.tensor import Tensor, gated_fusion


@pytest.fixture
def flow_conv(rng):
    return FlowConvolution(num_stations=5, short_window=6, long_days=3, rng=rng)


def windows(rng, n=5, k=6, d=3):
    return (
        FlowWindow.from_dense(rng.poisson(2.0, size=(k, n, n)).astype(float)),
        FlowWindow.from_dense(rng.poisson(2.0, size=(k, n, n)).astype(float)),
        FlowWindow.from_dense(rng.poisson(2.0, size=(d, n, n)).astype(float)),
        FlowWindow.from_dense(rng.poisson(2.0, size=(d, n, n)).astype(float)),
    )


class TestFlowConvolution:
    def test_output_shapes(self, flow_conv, rng):
        out = flow_conv(*windows(rng))
        assert out.node_features.shape == (5, 5)
        assert out.temporal_inflow.shape == (5, 5)
        assert out.temporal_outflow.shape == (5, 5)

    def test_temporal_matrices_nonnegative(self, flow_conv, rng):
        """ReLU convs + convex fusion keep I_hat and O_hat >= 0."""
        out = flow_conv(*windows(rng))
        assert (out.temporal_inflow.data >= 0).all()
        assert (out.temporal_outflow.data >= 0).all()

    def test_fusion_between_short_and_long(self, rng):
        """The fused matrix lies elementwise between its two inputs."""
        short = Tensor(np.full((4, 4), 2.0))
        long = Tensor(np.full((4, 4), 6.0))
        gate = FlowConvolution(4, 2, 2, rng).gate_inflow
        fused = gated_fusion(short, long, gate)
        assert (fused.data >= 2.0 - 1e-12).all()
        assert (fused.data <= 6.0 + 1e-12).all()

    def test_fusion_identity_when_equal(self, rng):
        value = Tensor(np.full((3, 3), 5.0))
        gate = FlowConvolution(3, 2, 2, rng).gate_inflow
        fused = gated_fusion(value, value, gate)
        np.testing.assert_allclose(fused.data, 5.0)

    def test_features_are_dynamic(self, flow_conv, rng):
        """Different flow windows must give different node features."""
        out1 = flow_conv(*windows(rng))
        out2 = flow_conv(*windows(rng))
        assert not np.allclose(out1.node_features.data, out2.node_features.data)

    def test_gradients_reach_every_parameter(self, flow_conv, rng):
        out = flow_conv(*windows(rng))
        (out.node_features * Tensor(rng.normal(size=(5, 5)))).sum().backward()
        for name, param in flow_conv.named_parameters():
            assert param.grad is not None, name
            assert np.abs(param.grad).sum() > 0, name

    def test_parameter_count_matches_paper_inventory(self, flow_conv):
        """W1..W4 (k or d each), b1..b4 (n^2 each), W5, W6 (n^2), W7 (2n*n)."""
        n, k, d = 5, 6, 3
        expected = 2 * k + 2 * d + 4 * n * n + 2 * n * n + 2 * n * n
        assert flow_conv.num_parameters() == expected

    def test_invalid_station_count(self, rng):
        with pytest.raises(ValueError):
            FlowConvolution(0, 4, 2, rng)

"""Initialization properties of the flow convolution (DESIGN.md §8.3)."""

import numpy as np
import pytest

from repro.data.window import FlowWindow
from repro.graphs import FlowConvolution


class TestFlowConvolutionInit:
    def test_conv_kernels_start_positive(self, rng):
        conv = FlowConvolution(6, short_window=8, long_days=3, rng=rng)
        for module in (conv.short_inflow_conv, conv.short_outflow_conv):
            assert (module.weight.data > 0).all()
            # Averaging filter: weights sum to ~1.
            assert module.weight.data.sum() == pytest.approx(1.0, abs=0.5)
        for module in (conv.long_inflow_conv, conv.long_outflow_conv):
            assert (module.weight.data > 0).all()

    def test_projection_starts_near_identity_stack(self, rng):
        n = 6
        conv = FlowConvolution(n, 4, 2, rng)
        w7 = conv.projection.data
        identity_stack = np.concatenate([np.eye(n), np.eye(n)], axis=0)
        # The identity component dominates the noise component.
        diag_mass = np.abs(w7 * identity_stack).sum()
        off_mass = np.abs(w7 * (1 - identity_stack)).sum()
        assert diag_mass > off_mass / 4

    def test_initial_features_reflect_flow_magnitudes(self, rng):
        """At init, larger flows should produce larger node features —
        the property the positive init exists to provide."""
        n = 5
        conv = FlowConvolution(n, 4, 2, rng)
        small = FlowWindow.from_dense(np.full((4, n, n), 0.1))
        large = FlowWindow.from_dense(np.full((4, n, n), 1.0))
        small_long = FlowWindow.from_dense(np.full((2, n, n), 0.1))
        large_long = FlowWindow.from_dense(np.full((2, n, n), 1.0))
        out_small = conv(small, small, small_long, small_long)
        out_large = conv(large, large, large_long, large_long)
        assert (
            out_large.node_features.data.sum()
            > out_small.node_features.data.sum()
        )

    def test_initial_fcg_mask_is_meaningful(self, rng):
        """With positive kernels, nonzero flows yield nonzero I_hat, so
        the FCG edge set is data-driven from the very first step."""
        from repro.graphs import build_fcg

        n = 5
        conv = FlowConvolution(n, 4, 2, rng)
        flows = np.zeros((4, n, n))
        flows[:, 0, 1] = 2.0  # the only observed flow: 0 -> 1
        zero = FlowWindow.from_dense(np.zeros((2, n, n)))
        out = conv(
            FlowWindow.from_dense(flows), FlowWindow.from_dense(np.zeros((4, n, n))),
            zero, zero,
        )
        graph = build_fcg(out)
        assert graph.mask[0, 1]  # inflow I_hat[0,1] > 0 => edge 1 -> 0
        assert not graph.mask[3, 4]  # no flow, no edge

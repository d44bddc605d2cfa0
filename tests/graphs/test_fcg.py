"""Flow-convoluted graph construction (Def. 2 / Eq. 10)."""

import contextlib

import numpy as np
import pytest

from repro.core import model as model_module
from repro.core.model import STGNNDJD, STGNNDJDConfig
from repro.data.dataset import FlowSample
from repro.data.window import FlowWindow
from repro.graphs import FlowConvolution, FlowConvolutionOutput, build_fcg
from repro.nn import PairwiseAdditiveAttention
from repro.tensor import Tensor, inference_mode


def output_from(features, inflow, outflow):
    return FlowConvolutionOutput(
        node_features=Tensor(np.asarray(features, dtype=float), requires_grad=True),
        temporal_inflow=Tensor(np.asarray(inflow, dtype=float)),
        temporal_outflow=Tensor(np.asarray(outflow, dtype=float)),
    )


class TestMask:
    def test_edge_from_inflow(self):
        inflow = np.zeros((3, 3))
        inflow[0, 2] = 1.0  # I_hat[0,2] > 0 -> edge 2 -> 0
        out = output_from(np.ones((3, 3)), inflow, np.zeros((3, 3)))
        graph = build_fcg(out)
        assert graph.mask[0, 2]
        assert not graph.mask[2, 0]  # direction matters

    def test_edge_from_outflow_transposed(self):
        outflow = np.zeros((3, 3))
        outflow[2, 0] = 1.0  # O_hat[2,0] > 0 -> edge 2 -> 0 (j=2, i=0)
        out = output_from(np.ones((3, 3)), np.zeros((3, 3)), outflow)
        graph = build_fcg(out)
        assert graph.mask[0, 2]

    def test_self_loops_always_present(self):
        out = output_from(np.ones((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
        graph = build_fcg(out)
        assert np.diag(graph.mask).all()

    def test_neighbor_counts(self):
        inflow = np.zeros((3, 3))
        inflow[0, 1] = inflow[0, 2] = 1.0
        out = output_from(np.ones((3, 3)), inflow, np.zeros((3, 3)))
        graph = build_fcg(out)
        assert graph.neighbor_counts()[0] == 3  # self + two in-edges


class TestWeights:
    def test_rows_with_positive_features_sum_to_one(self, rng):
        n = 5
        inflow = rng.random((n, n)) + 0.1  # dense graph
        features = rng.random((n, n)) + 0.1  # all positive
        graph = build_fcg(output_from(features, inflow, inflow))
        np.testing.assert_allclose(graph.weights.data.sum(axis=1), np.ones(n), atol=1e-9)

    def test_masked_pairs_get_zero_weight(self):
        inflow = np.zeros((3, 3))
        inflow[0, 1] = 1.0
        features = np.ones((3, 3))
        graph = build_fcg(output_from(features, inflow, np.zeros((3, 3))))
        assert graph.weights.data[0, 2] == 0.0  # no edge 2 -> 0

    def test_negative_features_clipped(self):
        features = -np.ones((3, 3))
        inflow = np.ones((3, 3))
        graph = build_fcg(output_from(features, inflow, inflow))
        assert (graph.weights.data == 0.0).all()

    def test_weight_proportional_to_feature(self):
        inflow = np.ones((3, 3))
        features = np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        graph = build_fcg(output_from(features, inflow, inflow))
        row = graph.weights.data[0]
        assert row[1] == pytest.approx(0.5, abs=1e-9)
        assert row[0] == pytest.approx(0.25, abs=1e-9)

    def test_weights_differentiable_wrt_features(self, rng):
        out = output_from(rng.random((4, 4)) + 0.1, np.ones((4, 4)), np.ones((4, 4)))
        graph = build_fcg(out)
        graph.weights.sum().backward()
        assert out.node_features.grad is not None

    def test_integration_with_flow_convolution(self, rng):
        conv = FlowConvolution(4, 3, 2, rng)
        out = conv(
            FlowWindow.from_dense(rng.poisson(3.0, (3, 4, 4)).astype(float)),
            FlowWindow.from_dense(rng.poisson(3.0, (3, 4, 4)).astype(float)),
            FlowWindow.from_dense(rng.poisson(3.0, (2, 4, 4)).astype(float)),
            FlowWindow.from_dense(rng.poisson(3.0, (2, 4, 4)).astype(float)),
        )
        graph = build_fcg(out)
        assert graph.num_nodes == 4
        assert (graph.weights.data >= 0).all()


@pytest.mark.parametrize("inference", [False, True], ids=["grad", "inference"])
@pytest.mark.parametrize("n", [8, 70])
class TestModelGraphsAreDense:
    """The model's forward builds the paper's dense FCG and PCG at every
    city size, including above 64 stations."""

    def forward(self, n, inference, seed=0):
        rng = np.random.default_rng(seed)
        config = STGNNDJDConfig(
            num_stations=n, short_window=4, long_days=2, fcg_layers=1,
            pcg_layers=1, num_heads=2, dropout=0.0,
        )
        model = STGNNDJD(config, rng=rng)
        model.eval()
        sample = FlowSample(
            t=0,
            short_inflow=FlowWindow.from_dense(rng.poisson(1.0, (4, n, n)).astype(float)),
            short_outflow=FlowWindow.from_dense(
                rng.poisson(1.0, (4, n, n)).astype(float)
            ),
            long_inflow=FlowWindow.from_dense(rng.poisson(1.0, (2, n, n)).astype(float)),
            long_outflow=FlowWindow.from_dense(rng.poisson(1.0, (2, n, n)).astype(float)),
            target_demand=np.zeros(n),
            target_supply=np.zeros(n),
        )
        with inference_mode() if inference else contextlib.nullcontext():
            model(sample)

    def test_fcg_weight_support_is_def2_mask(self, n, inference, monkeypatch):
        built = []

        def spy(flow_output):
            graph = build_fcg(flow_output)
            built.append((flow_output, graph))
            return graph

        monkeypatch.setattr(model_module, "build_fcg", spy)
        self.forward(n, inference)
        (flow_output, graph), = built
        inflow = flow_output.temporal_inflow.data
        outflow = flow_output.temporal_outflow.data
        mask = (inflow > 0) | (outflow.T > 0)
        np.fill_diagonal(mask, True)
        np.testing.assert_array_equal(graph.mask, mask)
        # Eq. 10 weights every Def. 2 edge with a positive flow share.
        positive = flow_output.node_features.data > 0
        np.testing.assert_array_equal(graph.weights.data != 0, mask & positive)

    def test_pcg_attention_is_dense_row_stochastic(self, n, inference, monkeypatch):
        matrices = []
        forward = PairwiseAdditiveAttention.forward

        def forward_spy(self, features, mask=None):
            alpha = forward(self, features, mask)
            matrices.append(alpha.data)
            return alpha

        monkeypatch.setattr(PairwiseAdditiveAttention, "forward", forward_spy)
        self.forward(n, inference)
        assert len(matrices) == 2  # one per head
        for alpha in matrices:
            assert alpha.shape == (n, n)
            np.testing.assert_allclose(alpha.sum(axis=1), np.ones(n), atol=1e-12)

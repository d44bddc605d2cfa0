"""Inference-mode parity with the recorded-graph forward.

The forward-only fast path (``inference_mode``) must be *behaviour
preserving*: for every nn layer, the fused model components, and all
aggregators, its float64 output is bitwise identical to the
recorded-graph forward, its float32 output matches within single
precision, and no autograd state (``_parents`` / ``_backward`` /
``requires_grad``) is retained on any result.
"""

import numpy as np
import pytest

from repro.core import STGNNDJD
from repro.core.aggregators import FlowAggregator, MaxAggregator, MeanAggregator
from repro.core.gnn import FlowGNN, PatternGNN, _AttentionLayer
from repro.data.window import FlowWindow
from repro.graphs import FlowConvolution, PatternCorrelationGraph, build_fcg
from repro.nn import (
    ELU,
    Conv1x1,
    Dropout,
    GRUEncoder,
    LayerNorm,
    Linear,
    LSTMEncoder,
    PairwiseAdditiveAttention,
    ReLU,
    RNNEncoder,
    ScaledDotProductAttention,
    Sigmoid,
    Tanh,
)
from repro.tensor import Tensor, inference_mode

# ----------------------------------------------------------------------
# Case registry: name -> builder(rng) -> (modules, call).
#
# ``call(dtype)`` creates its input tensors fresh in ``dtype`` (with
# requires_grad=True, so the recorded pass genuinely builds a graph) and
# returns a Tensor or a tuple of Tensors. Flow windows are data and enter
# in any dtype. ``modules`` lists every Module involved, so the float32
# test can cast parameters with ``to`` and restore them after: ops follow
# their inputs, so the casts and float32 inputs alone select float32.
# ----------------------------------------------------------------------
CASES = {}


def case(fn):
    CASES[fn.__name__.removeprefix("case_")] = fn
    return fn


def _input(rng, *shape):
    data = rng.normal(size=shape)
    return lambda dtype: Tensor(data, requires_grad=True, dtype=dtype)


@case
def case_linear(rng):
    layer = Linear(5, 3, rng=rng)
    x = _input(rng, 4, 5)
    return [layer], lambda dtype: layer(x(dtype))


@case
def case_linear_no_bias(rng):
    layer = Linear(5, 3, bias=False, rng=rng)
    x = _input(rng, 4, 5)
    return [layer], lambda dtype: layer(x(dtype))


@case
def case_conv1x1(rng):
    # The window is data (no gradient); the scale and ReLU are fused.
    layer = Conv1x1(6, (4, 4), rng)
    layer.bias.data = rng.normal(size=(4, 4))
    x = FlowWindow.from_dense(rng.poisson(0.7, size=(6, 4, 4)).astype(float))
    return [layer], lambda dtype: layer(x, scale=0.3, relu=True)


@case
def case_dropout_eval(rng):
    layer = Dropout(0.5, rng=rng)
    x = _input(rng, 4, 5)
    return [layer], lambda dtype: layer(x(dtype))


@case
def case_layer_norm(rng):
    layer = LayerNorm(5)
    x = _input(rng, 4, 5)
    return [layer], lambda dtype: layer(x(dtype))


@case
def case_relu(rng):
    x = _input(rng, 4, 5)
    return [ReLU()], lambda dtype: ReLU()(x(dtype))


@case
def case_elu(rng):
    x = _input(rng, 4, 5)
    return [ELU()], lambda dtype: ELU()(x(dtype))


@case
def case_sigmoid(rng):
    x = _input(rng, 4, 5)
    return [Sigmoid()], lambda dtype: Sigmoid()(x(dtype))


@case
def case_tanh(rng):
    x = _input(rng, 4, 5)
    return [Tanh()], lambda dtype: Tanh()(x(dtype))


@case
def case_pairwise_attention(rng):
    layer = PairwiseAdditiveAttention(5, rng)
    x = _input(rng, 7, 5)
    return [layer], lambda dtype: layer(x(dtype))


@case
def case_scaled_dot_attention(rng):
    layer = ScaledDotProductAttention(5, rng)
    x = _input(rng, 7, 5)
    return [layer], lambda dtype: layer(x(dtype))


@case
def case_rnn_encoder(rng):
    layer = RNNEncoder(5, 4, rng)
    x = _input(rng, 6, 5)
    return [layer], lambda dtype: layer(x(dtype))


@case
def case_lstm_encoder(rng):
    layer = LSTMEncoder(5, 4, rng)
    x = _input(rng, 6, 5)
    return [layer], lambda dtype: layer(x(dtype))


@case
def case_gru_encoder(rng):
    layer = GRUEncoder(5, 4, rng)
    x = _input(rng, 6, 5)
    return [layer], lambda dtype: layer(x(dtype))


def _graph_inputs(rng, n=5):
    """Non-negative features/weights/mask shaped like an FCG neighborhood."""
    features = rng.normal(size=(n, 4))
    raw = rng.uniform(size=(n, n))
    mask = raw > 0.3
    np.fill_diagonal(mask, True)
    weights = raw * mask
    weights = weights / weights.sum(axis=1, keepdims=True)
    return features, weights, mask


@case
def case_flow_aggregator(rng):
    features, weights, mask = _graph_inputs(rng)
    aggregator = FlowAggregator()
    return [aggregator], lambda dtype: aggregator(
        Tensor(features, requires_grad=True, dtype=dtype),
        Tensor(weights, dtype=dtype),
        mask,
    )


@case
def case_mean_aggregator(rng):
    features, weights, mask = _graph_inputs(rng)
    aggregator = MeanAggregator()
    return [aggregator], lambda dtype: aggregator(
        Tensor(features, requires_grad=True, dtype=dtype),
        Tensor(weights, dtype=dtype),
        mask,
    )


@case
def case_max_aggregator(rng):
    features, weights, mask = _graph_inputs(rng)
    aggregator = MaxAggregator(4, rng)
    return [aggregator], lambda dtype: aggregator(
        Tensor(features, requires_grad=True, dtype=dtype),
        Tensor(weights, dtype=dtype),
        mask,
    )


@case
def case_attention_layer(rng):
    layer = _AttentionLayer(6, 2, rng)
    x = _input(rng, 5, 6)
    return [layer], lambda dtype: layer(x(dtype))


@case
def case_flow_convolution(rng):
    conv = FlowConvolution(5, 8, 3, rng)
    short_in, short_out, long_in, long_out = (
        FlowWindow.from_dense(rng.poisson(0.8, size=(c, 5, 5)).astype(float))
        for c in (8, 8, 3, 3)
    )

    def call(dtype):
        out = conv(short_in, short_out, long_in, long_out, scale=0.4)
        return out.node_features, out.temporal_inflow, out.temporal_outflow

    return [conv], call


@case
def case_fcg_pipeline(rng):
    """FlowConvolution -> build_fcg -> FlowGNN, the full FCG branch."""
    conv = FlowConvolution(5, 8, 3, rng)
    gnn = FlowGNN(5, 2, rng)
    short_in, short_out, long_in, long_out = (
        FlowWindow.from_dense(rng.poisson(0.8, size=(c, 5, 5)).astype(float))
        for c in (8, 8, 3, 3)
    )

    def call(dtype):
        out = conv(short_in, short_out, long_in, long_out, scale=0.4)
        graph = build_fcg(out)
        return gnn(graph), graph.weights

    return [conv, gnn], call


@case
def case_flow_gnn_max(rng):
    """FlowGNN's max-aggregator ablation goes through composed ops."""
    from repro.graphs import FlowConvolutedGraph

    gnn = FlowGNN(4, 2, rng, aggregator="max")
    features, weights, mask = _graph_inputs(rng)

    def call(dtype):
        graph = FlowConvolutedGraph(
            node_features=Tensor(features, requires_grad=True, dtype=dtype),
            weights=Tensor(weights, dtype=dtype),
            mask=mask,
        )
        return gnn(graph)

    return [gnn], call


@case
def case_pattern_gnn_attention(rng):
    gnn = PatternGNN(6, 2, 2, rng)
    features = rng.normal(size=(5, 6))

    def call(dtype):
        graph = PatternCorrelationGraph(
            node_features=Tensor(features, requires_grad=True, dtype=dtype),
            attention=None,
        )
        return gnn(graph)

    return [gnn], call


@case
def case_pattern_gnn_mean(rng):
    gnn = PatternGNN(6, 2, 2, rng, aggregator="mean")
    features = rng.normal(size=(5, 6))

    def call(dtype):
        graph = PatternCorrelationGraph(
            node_features=Tensor(features, requires_grad=True, dtype=dtype),
            attention=None,
        )
        return gnn(graph)

    return [gnn], call


def _as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


def _assert_no_graph(tensor):
    assert not tensor.requires_grad
    assert tensor._backward is None
    assert tensor._parents == ()


@pytest.mark.parametrize("name", sorted(CASES))
def test_float64_bitwise_parity(name, rng):
    modules, call = CASES[name](rng)
    for module in modules:
        module.eval()
    recorded = [t.data.copy() for t in _as_tuple(call(np.float64))]
    with inference_mode():
        fast = _as_tuple(call(np.float64))
    for reference, result in zip(recorded, fast, strict=True):
        assert result.dtype == np.float64
        np.testing.assert_array_equal(result.data, reference)
    for result in fast:
        _assert_no_graph(result)


@pytest.mark.parametrize("name", sorted(CASES))
def test_float32_allclose_parity(name, rng):
    modules, call = CASES[name](rng)
    for module in modules:
        module.eval()
    recorded = [t.data.copy() for t in _as_tuple(call(np.float64))]
    snapshots = [module.state_dict() for module in modules]
    for module in modules:
        module.to(np.float32)
    try:
        with inference_mode():
            fast = _as_tuple(call(np.float32))
    finally:
        for module, snapshot in zip(modules, snapshots):
            module.to(np.float64)
            module.load_state_dict(snapshot)
    for reference, result in zip(recorded, fast, strict=True):
        assert result.dtype == np.float32
        np.testing.assert_allclose(result.data, reference, rtol=2e-4, atol=2e-5)
    for result in fast:
        _assert_no_graph(result)


class TestFullModel:
    """End-to-end parity on the real model over a real dataset sample."""

    def test_predict_matches_recorded_forward(self, tiny_dataset):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        model.eval()
        sample = tiny_dataset.sample(tiny_dataset.min_history)
        demand_ref, supply_ref = model(sample)
        with inference_mode():
            demand, supply = model(sample)
        np.testing.assert_array_equal(demand.data, demand_ref.data)
        np.testing.assert_array_equal(supply.data, supply_ref.data)
        _assert_no_graph(demand)
        _assert_no_graph(supply)

    def test_float32_predict_close(self, tiny_dataset):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        model.eval()
        sample = tiny_dataset.sample(tiny_dataset.min_history)
        demand_ref, supply_ref = model(sample)
        snapshot = model.state_dict()
        model.to(np.float32)
        try:
            with inference_mode():
                demand, supply = model(sample)
        finally:
            model.to(np.float64)
            model.load_state_dict(snapshot)
        assert demand.dtype == np.float32
        np.testing.assert_allclose(demand.data, demand_ref.data, rtol=1e-3, atol=1e-4)
        np.testing.assert_allclose(supply.data, supply_ref.data, rtol=1e-3, atol=1e-4)

"""Golden pins for graph evolution: round trips restore the exact model.

Growing the pinned golden model to a larger station set and shrinking
straight back must be a *perfect* round trip: every kept position in
every parameter is copied (never re-derived), so the FCG and PCG the
model builds at forward time, and the forward outputs themselves, come
back **bitwise identical** to the checked-in goldens. Any change to the
evolution remap rules that loses, reorders or recomputes a kept value
fails against the same pinned artifacts as the plain forward test.
"""

import dataclasses

import numpy as np
import pytest

from repro.continual import GraphEvolution, evolve_model
from repro.core.model import STGNNDJD
from repro.data.window import FlowWindow
from repro.graphs.fcg import build_fcg
from repro.tensor import inference_mode

from tests.golden.generate_goldens import (
    GOLDEN_PATH,
    T_OFFSETS,
    build,
    forward_outputs,
)


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.skip("golden file missing — run generate_goldens.py")
    with np.load(GOLDEN_PATH) as bundle:
        return {name: bundle[name].copy() for name in bundle.files}


def _grow_then_shrink(model: STGNNDJD, add: int, seed: int) -> STGNNDJD:
    n = model.config.num_stations
    grown = evolve_model(
        model, GraphEvolution.grow(n, add), seed=seed
    )
    return evolve_model(
        grown, GraphEvolution(n + add, tuple(range(n)), 0), seed=seed + 1
    )


@pytest.mark.parametrize("add", [1, 3])
def test_grow_then_shrink_restores_parameters_bitwise(add):
    _, model = build()
    round_tripped = _grow_then_shrink(model, add, seed=7)
    for (name, original), (name2, restored) in zip(
        model.named_parameters(), round_tripped.named_parameters()
    ):
        assert name == name2
        assert np.array_equal(original.data, restored.data), name


def test_grow_then_shrink_forward_matches_goldens_bitwise(golden):
    dataset, model = build()
    round_tripped = _grow_then_shrink(model, 2, seed=11)
    outputs = forward_outputs(dataset, round_tripped)
    assert set(outputs) == set(golden)
    for name in golden:
        assert outputs[name].dtype == np.float64
        assert np.array_equal(outputs[name], golden[name]), name


def test_grow_then_shrink_restores_fcg_and_pcg_bitwise():
    dataset, model = build()
    round_tripped = _grow_then_shrink(model, 2, seed=3)
    sample = dataset.sample(dataset.min_history + T_OFFSETS[0])
    with inference_mode():
        fcg_a = build_fcg(model._node_features(sample))
        fcg_b = build_fcg(round_tripped._node_features(sample))
        assert np.array_equal(fcg_a.mask, fcg_b.mask)
        assert np.array_equal(fcg_a.weights.data, fcg_b.weights.data)
        # The PCG's edges are the PatternGNN's first-layer attention.
        feats_a = model._node_features(sample).node_features
        feats_b = round_tripped._node_features(sample).node_features
        assert np.array_equal(feats_a.data, feats_b.data)
        attn_a = model.pattern_gnn.layers[0].attentions[0](feats_a)
        attn_b = round_tripped.pattern_gnn.layers[0].attentions[0](feats_b)
        assert np.array_equal(attn_a.data, attn_b.data)


def test_grown_model_preserves_kept_station_forward():
    """Growing alone keeps the original stations' graph structure: the
    kept block of the grown model's FCG mask equals the original's."""
    dataset, model = build()
    n = dataset.num_stations
    grown = evolve_model(model, GraphEvolution.grow(n, 2), seed=5)
    sample = dataset.sample(dataset.min_history)

    def widen(window):
        dense = window.dense()
        wide = np.zeros((dense.shape[0], n + 2, n + 2))
        wide[:, :n, :n] = dense
        return FlowWindow.from_dense(wide)

    wide_sample = dataclasses.replace(
        sample,
        short_inflow=widen(sample.short_inflow),
        short_outflow=widen(sample.short_outflow),
        long_inflow=widen(sample.long_inflow),
        long_outflow=widen(sample.long_outflow),
        target_demand=np.zeros(n + 2), target_supply=np.zeros(n + 2),
    )
    with inference_mode():
        fcg_small = build_fcg(model._node_features(sample))
        fcg_big = build_fcg(grown._node_features(wide_sample))
    assert np.array_equal(fcg_big.mask[:n, :n], fcg_small.mask)

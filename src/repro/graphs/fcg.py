"""The flow-convoluted graph (FCG) — Definition 2 of the paper.

Nodes are stations carrying the dynamic feature ``T^t_i``; a directed
edge ``j -> i`` exists whenever the fused temporal flows connect the two
stations (``I_hat[i,j] > 0`` or ``O_hat[j,i] > 0``), and the edge weight
is station ``i``'s row-share of ``T`` (Eq. 10):

    E_f(i, j) = T[i, j] / sum_k T[i, k].

Numerical note: ``T`` is a linear projection, so individual entries (and
the raw row sum) can be negative or zero, which would make Eq. 10
undefined. We therefore normalise the *positive part* of ``T`` —
``w_ij = relu(T)_ij / (sum_k relu(T)_ik + eps)`` — which preserves the
paper's semantics ("the share of station i's flow that involves j"),
guarantees rows sum to at most 1, and is differentiable. Masked-out
pairs (no flow relationship) get weight exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.flow_convolution import FlowConvolutionOutput
from repro.tensor import Tensor

_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class FlowConvolutedGraph:
    """FCG at one prediction time.

    Attributes
    ----------
    node_features:
        ``T`` — dynamic station features, ``(n, n)``.
    weights:
        Differentiable aggregation weights ``w[i, j]`` (row ``i``
        aggregates from ``j``), zero outside the mask; ``(n, n)``.
    mask:
        Boolean adjacency (including self-loops, since the aggregator of
        Eq. 14 pools over ``{i} ∪ N(i)``); ``(n, n)``.
    """

    node_features: Tensor
    weights: Tensor
    mask: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    def neighbor_counts(self) -> np.ndarray:
        """In-degree (incl. self) per station — handy for diagnostics."""
        return self.mask.sum(axis=1)


def build_fcg(flow_output: FlowConvolutionOutput) -> FlowConvolutedGraph:
    """Construct the FCG from a flow-convolution result.

    The mask is structural (derived from data values, not differentiated
    through); the weights remain differentiable w.r.t. ``T``.
    """
    temporal_inflow = flow_output.temporal_inflow.data
    temporal_outflow = flow_output.temporal_outflow.data
    # Edge j -> i iff I_hat[i, j] > 0 or O_hat[j, i] > 0 (Def. 2), plus
    # self-loops because Eq. 14 aggregates the node's own embedding.
    mask = (temporal_inflow > 0) | (temporal_outflow.T > 0)
    np.fill_diagonal(mask, True)

    features = flow_output.node_features
    # The float mask matches the feature dtype so a float32 forward stays
    # float32 end to end.
    positive = features.relu() * Tensor(mask, dtype=features.data.dtype)
    row_sums = positive.sum(axis=1, keepdims=True)
    weights = positive / (row_sums + _EPS)
    return FlowConvolutedGraph(node_features=features, weights=weights, mask=mask)

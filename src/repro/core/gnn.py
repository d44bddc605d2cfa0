"""Multi-layer GNNs over the FCG and PCG (paper Sec. V, Algorithm 1).

Both networks follow Algorithm 1: initialise ``F^0 = T``, then for
``k = 1..K`` update every node by aggregating its (masked or dense)
neighborhood and transforming with layer weights ``W^k``:

    F^k_i = sigma(W^k · Aggr({F^{k-1}_i} ∪ {F^{k-1}_j : j ∈ N(i)})).

``FlowGNN`` runs the flow-based aggregator (or the mean/max ablations)
on the flow-convoluted graph; ``PatternGNN`` runs the multi-head
attention aggregator (Eqs. 15-18) on the dense pattern correlation
graph, recomputing attention from each layer's own input.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregators import (
    VALID_PCG_AGGREGATORS,
    MaxAggregator,
    MeanAggregator,
    make_fcg_aggregator,
)
from repro.graphs import FlowConvolutedGraph, PatternCorrelationGraph
from repro.nn import (
    Dropout,
    Linear,
    Module,
    ModuleList,
    PairwiseAdditiveAttention,
    Parameter,
    init,
)
from repro.tensor import Tensor, concat


class FlowGNN(Module):
    """K-layer GNN on the flow-convoluted graph (Sec. V-B).

    Each layer pools with the configured aggregator (default: the
    flow-based aggregator of Eq. 14, whose weights come from the graph)
    and updates per Eq. 13, ``F^k_i = sigma(W^k · Aggr({F_i} ∪ {F_j}))``.
    Following GraphSAGE — the framework Eq. 13 is built on (the paper's
    ref. [47]) — the node's own embedding enters the update by
    concatenation with the neighborhood pool: ``W^k`` maps
    ``[F_i || pooled_i]`` to the new embedding. The explicit self path
    keeps deep stacks trainable: with pooled-only updates, the flow
    weights ``w_ii`` can be arbitrarily small and a station's identity
    washes out after two layers.
    """

    def __init__(
        self,
        features: int,
        num_layers: int,
        rng: np.random.Generator,
        aggregator: str = "flow",
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        self.features = features
        self.num_layers = num_layers
        self.aggregators = ModuleList(
            [make_fcg_aggregator(aggregator, features, rng) for _ in range(num_layers)]
        )
        self.transforms = ModuleList(
            [Linear(2 * features, features, rng=rng) for _ in range(num_layers)]
        )
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, graph: FlowConvolutedGraph) -> Tensor:
        embedding = graph.node_features
        for aggregator, transform in zip(self.aggregators, self.transforms):
            pooled = aggregator(embedding, graph.weights, graph.mask)
            embedding = transform(concat([embedding, pooled], axis=1)).relu()
            embedding = self.dropout(embedding)
        return embedding


class _AttentionLayer(Module):
    """One multi-head attention layer of the PatternGNN (Eq. 18).

    Per head ``u``: attention ``alpha^{(k,u)}`` from the layer input
    (Eqs. 15-16), value projection ``phi_u``, output
    ``ELU(alpha^{(k,u)} @ (F @ phi_u) + F @ rho_u)``; heads are
    concatenated and mixed with ``W10``.

    The ``F @ rho_u`` self term implements the ``{F^{k-1}_i} ∪ ...``
    part of the aggregation contract (Eq. 13): the node's own embedding
    enters the update alongside the attention pool. Without it, the
    additive attention's row softmax makes every station aggregate a
    near-identical mixture at initialization (the source half of
    Eq. 11's score is constant within a row), so stacked layers collapse
    station identity and the branch barely trains — observed directly at
    this reproduction's scale (PCG-only RMSE 3.2 -> with the self term it
    becomes competitive).
    """

    def __init__(self, features: int, num_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        if num_heads < 1:
            raise ValueError(f"num_heads must be >= 1, got {num_heads}")
        self.features = features
        self.num_heads = num_heads
        self.attentions = ModuleList(
            [PairwiseAdditiveAttention(features, rng) for _ in range(num_heads)]
        )
        self.values = ModuleList(
            [Linear(features, features, bias=False, rng=rng) for _ in range(num_heads)]
        )
        # The attention pool starts faint (value projections scaled down)
        # and fades in as phi_u learns: before the attention has learned
        # which stations share patterns, alpha is near-uniform and the
        # pooled term only injects noise into the informative self path.
        for value in self.values:
            value.weight.data *= 0.1
        self.selves = ModuleList(
            [Linear(features, features, bias=False, rng=rng) for _ in range(num_heads)]
        )
        self.mix = Parameter(
            init.xavier_uniform((num_heads * features, features), rng), name="W10"
        )

    def forward(self, features: Tensor) -> Tensor:
        head_outputs = []
        for attention, value, self_proj in zip(self.attentions, self.values, self.selves):
            alpha = attention(features)  # (n, n), rows sum to 1
            pooled = alpha @ value(features) + self_proj(features)
            head_outputs.append(pooled.elu())
        return concat(head_outputs, axis=1) @ self.mix

    def attention_matrices(self, features: Tensor) -> list[Tensor]:
        """Per-head attention weights for this layer's input (case study)."""
        return [attention(features) for attention in self.attentions]


class PatternGNN(Module):
    """K-layer GNN on the pattern correlation graph (Sec. V-C).

    The default aggregator is the data-driven multi-head attention; the
    ``mean``/``max`` options replace it for the Fig. 6 aggregator study
    (the PCG is dense, so their neighborhood is all stations).
    """

    def __init__(
        self,
        features: int,
        num_layers: int,
        num_heads: int,
        rng: np.random.Generator,
        aggregator: str = "attention",
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        if aggregator not in VALID_PCG_AGGREGATORS:
            raise ValueError(
                f"unknown PCG aggregator {aggregator!r}; choose from {VALID_PCG_AGGREGATORS}"
            )
        self.features = features
        self.num_layers = num_layers
        self.aggregator_kind = aggregator
        self.dropout = Dropout(dropout, rng=rng)
        if aggregator == "attention":
            self.layers = ModuleList(
                [_AttentionLayer(features, num_heads, rng) for _ in range(num_layers)]
            )
        else:
            pool = MeanAggregator if aggregator == "mean" else MaxAggregator
            self.pools = ModuleList(
                [
                    pool(features, rng) if aggregator == "max" else pool()
                    for _ in range(num_layers)
                ]
            )
            # GraphSAGE-style update (see FlowGNN): W maps [self || pool].
            self.transforms = ModuleList(
                [Linear(2 * features, features, rng=rng) for _ in range(num_layers)]
            )

    def forward(self, graph: PatternCorrelationGraph) -> Tensor:
        embedding = graph.node_features
        if self.aggregator_kind == "attention":
            for layer in self.layers:
                embedding = self.dropout(layer(embedding))
            return embedding
        n = embedding.shape[0]
        dense_mask = np.ones((n, n), dtype=bool)
        dense_weights = Tensor(dense_mask / n, dtype=embedding.data.dtype)
        for pool, transform in zip(self.pools, self.transforms):
            pooled = pool(embedding, dense_weights, dense_mask)
            embedding = self.dropout(
                transform(concat([embedding, pooled], axis=1)).elu()
            )
        return embedding

    def attention_matrices(self, graph: PatternCorrelationGraph) -> list[list[Tensor]]:
        """Attention weights per layer (outer) and head (inner).

        Runs a forward pass, capturing each layer's attention over its
        actual input — the quantity visualised in Figs. 11-12.
        """
        if self.aggregator_kind != "attention":
            raise RuntimeError("attention matrices only exist for the attention aggregator")
        matrices: list[list[Tensor]] = []
        embedding = graph.node_features
        for layer in self.layers:
            matrices.append(layer.attention_matrices(embedding))
            embedding = layer(embedding)
        return matrices

"""The pattern correlation graph (PCG) — Definition 3 of the paper.

The PCG relates stations by the *similarity of their demand-supply
patterns*, independent of physical flow or distance: edge weights are
attention scores over node features (Eqs. 11-12),

    e(i, j) = ELU([T_i W8 || T_j W8] W9),    alpha = row-softmax(e),

so a station near one school can attend to a station near another school
across the city — the global dependency the paper's case study
demonstrates. The graph is dense (every pair has a learned weight) and,
like the FCG, regenerated at every prediction time from the dynamic
features ``T^t``.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.nn import PairwiseAdditiveAttention
from repro.tensor import Tensor


@dataclass(frozen=True, slots=True)
class PatternCorrelationGraph:
    """PCG at one prediction time.

    Attributes
    ----------
    node_features:
        ``T`` — dynamic station features, ``(n, n)``.
    attention:
        Edge weights ``alpha(i, j)`` from Eqs. 11-12; rows sum to 1.
        Inside STGNN-DJD the GNN layers recompute attention from their
        own inputs (Eqs. 15-16 extend Eqs. 11-12 to a multi-layer
        network), so the model passes ``None`` here and the first-layer
        attention *is* the generator's edge set; :func:`build_pcg` fills
        the field for standalone inspection (the Sec. VIII case study).
    """

    node_features: Tensor
    attention: Tensor | None

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]


def build_pcg(
    node_features: Tensor, attention_module: PairwiseAdditiveAttention
) -> PatternCorrelationGraph:
    """Construct the PCG: dense attention edges over node features."""
    if node_features.ndim != 2:
        raise ValueError(f"node features must be (n, f), got {node_features.shape}")
    attention = attention_module(node_features)
    return PatternCorrelationGraph(node_features=node_features, attention=attention)

"""Attention primitives shared by the graph generator and the GNN.

Two forms appear in the paper:

* *Additive (GAT-style) pairwise attention* over node-feature pairs
  (Eqs. 11-12 and 15-16): ``e(i,j) = ELU([F_i W8 || F_j W8] W9)`` then a
  row softmax. :class:`PairwiseAdditiveAttention` computes the full
  ``n x n`` score matrix in one vectorised pass by splitting ``W9`` into
  its source/target halves.
* *Scaled dot-product attention*, used by our ASTGCN baseline's spatial
  attention block.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, ops


class PairwiseAdditiveAttention(Module):
    """All-pairs additive attention producing an ``(n, n)`` score matrix.

    For features ``F in R^{n x f}`` the paper defines
    ``e(i, j) = sigma_2([F_i W || F_j W] a)`` with ``a in R^{2f x 1}``.
    Writing ``a = [a_src; a_dst]`` gives
    ``e(i, j) = sigma_2((F W a_src)_i + (F W a_dst)_j)``, which we
    evaluate with one projection and an outer broadcast — O(n^2) instead
    of materialising n^2 concatenations.
    """

    def __init__(self, features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.features = features
        self.weight = Parameter(init.xavier_uniform((features, features), rng), name="W8")
        self.attn_src = Parameter(init.xavier_uniform((features, 1), rng), name="a_src")
        self.attn_dst = Parameter(init.xavier_uniform((features, 1), rng), name="a_dst")

    def scores(self, features: Tensor) -> Tensor:
        """Raw (pre-softmax) attention coefficients ``e(i, j)``, ELU-activated.

        ``e[i, j] = ELU(src_i + dst_j)`` — the projection plus the whole
        broadcast-add-ELU pipeline runs as one fused kernel
        (:func:`repro.tensor.ops.pairwise_scores`).
        """
        projected = ops.linear(features, self.weight)  # (n, f)
        return ops.pairwise_scores(projected, self.attn_src, self.attn_dst)

    def forward(self, features: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Row-softmaxed attention matrix ``alpha`` (Eq. 12 / Eq. 16)."""
        raw = self.scores(features)
        if mask is None:
            return ops.row_softmax(raw)
        return ops.masked_softmax(raw, mask, axis=-1)


class ScaledDotProductAttention(Module):
    """Standard ``softmax(Q K^T / sqrt(d)) V`` attention block."""

    def __init__(self, model_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.model_dim = model_dim
        self.query = Parameter(init.xavier_uniform((model_dim, model_dim), rng))
        self.key = Parameter(init.xavier_uniform((model_dim, model_dim), rng))
        self.value = Parameter(init.xavier_uniform((model_dim, model_dim), rng))

    def forward(self, x: Tensor) -> Tensor:
        q = ops.linear(x, self.query)
        k = ops.linear(x, self.key)
        v = ops.linear(x, self.value)
        # Folding the 1/sqrt(d) scale into the thin (n, d) query instead
        # of the (n, n) score matrix touches d/n as much memory.
        scale = 1.0 / np.sqrt(self.model_dim)
        return ops.sdp_attention(q * scale, k, v)

    def attention_matrix(self, x: Tensor) -> Tensor:
        """Return just the attention weights (for inspection / case study)."""
        q = ops.linear(x, self.query)
        k = ops.linear(x, self.key)
        # Folding the 1/sqrt(d) scale into the thin (n, d) query instead
        # of the (n, n) score matrix touches d/n as much memory.
        scale = 1.0 / np.sqrt(self.model_dim)
        return ops.row_softmax((q * scale) @ k.T)

"""STGNN-DJD: the paper's full model (Secs. IV-VI) plus its ablations.

Pipeline per prediction time ``t``:

1. **Graph generation** — flow convolution turns the short/long flow
   windows into dynamic node features ``T`` (Eqs. 1-9); the FCG and PCG
   are built from ``T`` (Defs. 2-3).
2. **Dependency learning** — ``FlowGNN`` (flow aggregator, 2 layers) and
   ``PatternGNN`` (multi-head attention, 3 layers, 4 heads) produce
   per-graph station embeddings, concatenated per Eq. 19.
3. **Prediction** — a linear head maps each station embedding to
   ``(x_hat, y_hat)`` (Eq. 20), in normalised space.

The Sec. VII-F ablations are configuration switches: ``use_flow_conv``
(No FC: node features become free learnable parameters), ``use_fcg`` and
``use_pcg`` (drop one graph branch). The Figs. 5-9 studies map to
``fcg_aggregator``, ``pcg_aggregator``, ``num_heads``, ``fcg_layers``
and ``pcg_layers``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.gnn import FlowGNN, PatternGNN
from repro.data.dataset import BikeShareDataset, FlowSample
from repro.graphs import (
    FlowConvolution,
    FlowConvolutionOutput,
    PatternCorrelationGraph,
    build_fcg,
)
from repro.nn import Dropout, Linear, Module, Parameter, init
from repro.tensor import Tensor, concat, inference_mode


@dataclass(frozen=True, slots=True)
class STGNNDJDConfig:
    """Hyperparameters; defaults follow the paper's Sec. VII-C settings."""

    num_stations: int
    short_window: int = 96  # k
    long_days: int = 7  # d
    fcg_layers: int = 2
    pcg_layers: int = 3
    num_heads: int = 4  # m
    dropout: float = 0.2
    flow_scale: float = 1.0  # input scaling (max training flow count)
    use_flow_conv: bool = True  # False = "No FC" ablation
    use_fcg: bool = True  # False = "No FCG" ablation
    use_pcg: bool = True  # False = "No PCG" ablation
    fcg_aggregator: str = "flow"  # Fig. 5: flow | mean | max
    pcg_aggregator: str = "attention"  # Fig. 6: attention | mean | max
    # Sec. IX extension: predict slots t .. t+horizon-1 jointly. The
    # paper sketches exactly this ("replacing the model output {O^t, I^t}
    # as {O^t, ..., O^{t+k}, I^t, ..., I^{t+k}}"); horizon=1 is the
    # paper's single-step setting.
    horizon: int = 1

    def __post_init__(self) -> None:
        if self.num_stations < 2:
            raise ValueError("need at least 2 stations")
        if not self.use_fcg and not self.use_pcg:
            raise ValueError("at least one of FCG/PCG must be enabled")
        if self.flow_scale <= 0:
            raise ValueError("flow_scale must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    def with_overrides(self, **kwargs) -> "STGNNDJDConfig":
        """A copy with the given fields replaced (for ablation sweeps)."""
        return replace(self, **kwargs)


class STGNNDJD(Module):
    """The full spatial-temporal graph neural network."""

    def __init__(self, config: STGNNDJDConfig, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.config = config
        n = config.num_stations

        if config.use_flow_conv:
            self.flow_conv = FlowConvolution(
                n, config.short_window, config.long_days, rng
            )
        else:
            # "No FC" ablation: node features are free parameters; the
            # fused temporal flows (needed for the FCG mask/weights) fall
            # back to the mean of the short-term window at forward time.
            self.free_features = Parameter(
                init.xavier_uniform((n, n), rng), name="free_features"
            )

        self.feature_dropout = Dropout(config.dropout, rng=rng)
        if config.use_pcg:
            self.pattern_gnn = PatternGNN(
                n,
                config.pcg_layers,
                config.num_heads,
                rng,
                aggregator=config.pcg_aggregator,
                dropout=config.dropout,
            )
        if config.use_fcg:
            self.flow_gnn = FlowGNN(
                n,
                config.fcg_layers,
                rng,
                aggregator=config.fcg_aggregator,
                dropout=config.dropout,
            )

        embedding_width = n * (int(config.use_fcg) + int(config.use_pcg))
        # Eq. 20: W11 maps the station embedding to (demand, supply) —
        # per future slot when horizon > 1 (Sec. IX extension).
        self.predictor = Linear(embedding_width, 2 * config.horizon, rng=rng)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(
        cls, dataset: BikeShareDataset, seed: int = 0, **overrides
    ) -> "STGNNDJD":
        """Build a model matching a dataset's dimensions and windows."""
        config = STGNNDJDConfig(
            num_stations=dataset.num_stations,
            short_window=dataset.config.short_window,
            long_days=dataset.config.long_days,
            flow_scale=dataset.flow_scale,
            **overrides,
        )
        return cls(config, np.random.default_rng(seed))

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def _node_features(self, sample: FlowSample) -> FlowConvolutionOutput:
        """Stage 1: dynamic node features from the sample's flow windows."""
        scale = 1.0 / self.config.flow_scale
        if self.config.use_flow_conv:
            return self.flow_conv(
                sample.short_inflow,
                sample.short_outflow,
                sample.long_inflow,
                sample.long_outflow,
                scale=scale,
            )
        # No-FC ablation: learnable features, data-derived flow matrices
        # (the short windows' means, scatter-added from their entries).
        return FlowConvolutionOutput(
            node_features=self.free_features,
            temporal_inflow=Tensor(sample.short_inflow.mean() * scale),
            temporal_outflow=Tensor(sample.short_outflow.mean() * scale),
        )

    def embed(self, sample: FlowSample) -> Tensor:
        """Stations' joint spatial-temporal embedding ``F`` (Eq. 19)."""
        flow_output = self._node_features(sample)
        features = self.feature_dropout(flow_output.node_features)
        flow_output = FlowConvolutionOutput(
            node_features=features,
            temporal_inflow=flow_output.temporal_inflow,
            temporal_outflow=flow_output.temporal_outflow,
        )
        parts = []
        if self.config.use_fcg:
            parts.append(self.flow_gnn(build_fcg(flow_output)))
        if self.config.use_pcg:
            # The PCG's edges (Eqs. 11-12) are the PatternGNN's first-
            # layer attention, recomputed inside the GNN (Sec. V-C
            # "extends Equations 11 and 12 to a multi-layer network"),
            # so the graph object here carries only node features.
            pcg = PatternCorrelationGraph(node_features=features, attention=None)
            parts.append(self.pattern_gnn(pcg))
        return parts[0] if len(parts) == 1 else concat(parts, axis=1)

    def forward(self, sample: FlowSample) -> tuple[Tensor, Tensor]:
        """Predict normalised ``(demand, supply)``.

        Shapes are ``(n,)`` for the paper's single-step setting and
        ``(n, horizon)`` when the multi-step extension is enabled.
        """
        embedding = self.embed(sample)
        output = self.predictor(embedding)  # (n, 2 * horizon)
        if self.config.horizon == 1:
            return output[:, 0], output[:, 1]
        h = self.config.horizon
        return output[:, :h], output[:, h:]

    # ------------------------------------------------------------------
    # Case-study introspection (Sec. VIII)
    # ------------------------------------------------------------------
    def dependency_matrix(self, sample: FlowSample) -> np.ndarray:
        """Generator-level PCG attention scores ``alpha`` at time ``t``.

        ``alpha[i, j]`` is the learned influence of station ``j`` on
        station ``i`` — the quantity plotted in Figs. 11-12. It is the
        PatternGNN's first-layer attention over the generator's node
        features, averaged over heads. Requires the attention PCG branch.
        """
        layers = self.layer_attention(sample)
        heads = layers[0]
        return np.mean(heads, axis=0)

    def layer_attention(self, sample: FlowSample) -> list[list[np.ndarray]]:
        """Per-layer, per-head PCG attention matrices at time ``t``."""
        if not self.config.use_pcg or self.config.pcg_aggregator != "attention":
            raise RuntimeError("layer attention requires the attention-based PCG branch")
        was_training = self.training
        self.eval()
        try:
            with inference_mode():
                flow_output = self._node_features(sample)
                pcg = PatternCorrelationGraph(
                    node_features=flow_output.node_features, attention=None
                )
                layers = self.pattern_gnn.attention_matrices(pcg)
                return [[head.data.copy() for head in layer] for layer in layers]
        finally:
            self.train(was_training)

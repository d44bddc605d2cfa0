"""Flow convolution: node-feature learning from raw flows (Sec. IV-A).

The component takes the short-term window (last ``k`` slots) and the
long-term window (same slot over the last ``d`` days) of inflow/outflow
matrices as multi-channel stacks and fuses the channels with 1x1
convolutions (Eqs. 1-4):

    I_hat_S = ReLU(W1 * I_S + b1)        O_hat_S = ReLU(W2 * O_S + b2)
    I_hat_L = ReLU(W3 * I_L + b3)        O_hat_L = ReLU(W4 * O_L + b4)

then blends short and long views with an attentive softmax gate
(Eqs. 5-8) and projects the concatenated inflow/outflow embedding to the
final node-feature matrix ``T in R^{n x n}`` (Eq. 9). ``T`` is dynamic:
it is recomputed from data at every prediction time ``t``.

The windows arrive as COO entries (:class:`repro.data.window.FlowWindow`)
and Eqs. 1-4 scatter-add only their non-zero cells, with the input
scale folded into the same kernel; everything from the ReLU outputs on
is dense ``n x n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.window import FlowWindow
from repro.nn import Conv1x1, Module, Parameter, init
from repro.tensor import Tensor, concat, gated_fusion


@dataclass(frozen=True, slots=True)
class FlowConvolutionOutput:
    """Node features plus the fused temporal flow matrices.

    ``temporal_inflow`` (paper's ``I_hat``, Eq. 5) and
    ``temporal_outflow`` (``O_hat``, Eq. 8) are kept because the FCG edge
    mask is defined on them (Def. 2: an edge exists where
    ``I_hat[i,j] > 0`` or ``O_hat[j,i] > 0``).
    """

    node_features: Tensor  # T, (n, n)
    temporal_inflow: Tensor  # I_hat, (n, n)
    temporal_outflow: Tensor  # O_hat, (n, n)


class FlowConvolution(Module):
    """Learns the dynamic node-feature matrix ``T`` from flow windows."""

    def __init__(
        self,
        num_stations: int,
        short_window: int,
        long_days: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if num_stations < 1:
            raise ValueError("num_stations must be >= 1")
        n = num_stations
        self.num_stations = n
        self.short_window = short_window
        self.long_days = long_days
        field = (n, n)
        # Eqs. 1-4: one 1x1 conv per (flow direction, horizon).
        self.short_inflow_conv = Conv1x1(short_window, field, rng)
        self.short_outflow_conv = Conv1x1(short_window, field, rng)
        self.long_inflow_conv = Conv1x1(long_days, field, rng)
        self.long_outflow_conv = Conv1x1(long_days, field, rng)
        # Initialization note: the kernels start as positive averaging
        # filters (1/k with jitter) rather than mixed-sign Xavier draws.
        # Flow counts are non-negative, so a mixed-sign kernel feeds the
        # ReLU of Eqs. 1-4 near-zero-mean noise and the ReLU discards
        # half the signal at step 0; a positive kernel makes I_hat/O_hat
        # start as time-averaged flows, which also gives the FCG a
        # meaningful edge set (Def. 2 thresholds on positivity) from the
        # first forward pass. Observed to cut convergence time several-
        # fold at this reproduction's data scale.
        for conv in (self.short_inflow_conv, self.short_outflow_conv):
            conv.weight.data = (1.0 / short_window) * rng.uniform(
                0.5, 1.5, size=short_window
            )
        for conv in (self.long_inflow_conv, self.long_outflow_conv):
            conv.weight.data = (1.0 / long_days) * rng.uniform(0.5, 1.5, size=long_days)
        # Eqs. 6-7: W5 (inflow gate) and W6 (outflow gate).
        self.gate_inflow = Parameter(init.xavier_uniform(field, rng), name="W5")
        self.gate_outflow = Parameter(init.xavier_uniform(field, rng), name="W6")
        # Eq. 9: projection of the concatenated (I_hat || O_hat). Starts
        # near [I; I]/2 (plus Xavier noise) so T begins as the summed
        # inflow+outflow feature map instead of a random mix.
        identity_stack = np.concatenate([np.eye(n), np.eye(n)], axis=0)
        self.projection = Parameter(
            0.5 * identity_stack + 0.3 * init.xavier_uniform((2 * n, n), rng),
            name="W7",
        )

    def forward(
        self,
        short_inflow: FlowWindow,
        short_outflow: FlowWindow,
        long_inflow: FlowWindow,
        long_outflow: FlowWindow,
        scale: float = 1.0,
    ) -> FlowConvolutionOutput:
        """Fuse flow windows into node features.

        Parameters are the four windows: ``(k, n, n)`` short and
        ``(d, n, n)`` long stacks for each flow direction, as COO
        entries; every count is multiplied by ``scale`` (the model's
        input normalisation) inside the convolution.
        """
        # Eqs. 1-4, the input scale and the ReLU fused into the conv op.
        inflow_short = self.short_inflow_conv(short_inflow, scale, relu=True)
        outflow_short = self.short_outflow_conv(short_outflow, scale, relu=True)
        inflow_long = self.long_inflow_conv(long_inflow, scale, relu=True)
        outflow_long = self.long_outflow_conv(long_outflow, scale, relu=True)

        # Eqs. 5-8: beta_S = exp(W . short) / (exp(W . short) + exp(W . long))
        # with W applied elementwise, beta_L = 1 - beta_S. The fused op
        # computes the two-way softmax as a sigmoid of the score
        # difference, which is exactly exp(a)/(exp(a)+exp(b)) but immune
        # to overflow.
        temporal_inflow = gated_fusion(inflow_short, inflow_long, self.gate_inflow)
        temporal_outflow = gated_fusion(outflow_short, outflow_long, self.gate_outflow)

        # Eq. 9: T = (I_hat || O_hat) W7, concatenating feature columns.
        combined = concat([temporal_inflow, temporal_outflow], axis=1)  # (n, 2n)
        node_features = combined @ self.projection  # (n, n)
        return FlowConvolutionOutput(
            node_features=node_features,
            temporal_inflow=temporal_inflow,
            temporal_outflow=temporal_outflow,
        )

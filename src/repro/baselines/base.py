"""Shared machinery for the deep baselines.

Every deep baseline consumes the same :class:`~repro.data.FlowSample`
that STGNN-DJD does and produces normalised ``(demand, supply)``
predictions, so the one :class:`~repro.core.Trainer` fits them all.
What differs is the *view* of the sample each architecture takes:

* per-station **recent history** — demand/supply of the last ``h`` slots
  (derived from the short flow window by row sums);
* per-station **daily history** — demand/supply at the same slot over
  the last ``d`` days (from the long window);
* a **spatial graph** over stations, built from distance, correlation or
  aggregate flow depending on the baseline.

Inputs are scaled by the dataset's training demand/supply maxima so the
networks see O(1) activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import backend
from repro.data.dataset import BikeShareDataset, FlowSample
from repro.nn import Module
from repro.tensor import Tensor


@dataclass(frozen=True, slots=True)
class BaselineDims:
    """Shape/scale information deep baselines need about a dataset."""

    num_stations: int
    history: int  # recent slots consumed (<= dataset short_window)
    daily: int  # daily lags consumed (<= dataset long_days)
    input_scale: float  # max training demand/supply, for input scaling

    def __post_init__(self) -> None:
        if self.num_stations < 2:
            raise ValueError("need at least 2 stations")
        if self.history < 1 or self.daily < 0:
            raise ValueError("history must be >= 1 and daily >= 0")
        if self.input_scale <= 0:
            raise ValueError("input_scale must be positive")

    @classmethod
    def from_dataset(
        cls, dataset: BikeShareDataset, history: int | None = None, daily: int | None = None
    ) -> "BaselineDims":
        history = min(history or 24, dataset.config.short_window)
        daily = min(daily if daily is not None else dataset.config.long_days,
                    dataset.config.long_days)
        scale = max(
            dataset.demand_normalizer.maximum or 1.0,
            dataset.supply_normalizer.maximum or 1.0,
            1.0,
        )
        return cls(dataset.num_stations, history, daily, scale)


class DeepBaseline(Module):
    """Base class: sample views + the Trainer-compatible interface."""

    def __init__(self, dims: BaselineDims) -> None:
        super().__init__()
        self.dims = dims

    # ------------------------------------------------------------------
    # Sample views (plain numpy; gradients start at the first layer)
    # ------------------------------------------------------------------
    def recent_history(self, sample: FlowSample) -> np.ndarray:
        """Scaled per-station series, shape ``(history, n, 2)``.

        Channel 0 is demand (outflow row sums), channel 1 supply.
        """
        h = self.dims.history
        demand = sample.short_outflow.row_sums()[-h:]
        supply = sample.short_inflow.row_sums()[-h:]
        scaled = np.stack([demand, supply], axis=2) / self.dims.input_scale
        # Backend dtype (not hardcoded float64) so a float32 inference
        # scope keeps the whole baseline forward in single precision.
        return scaled.astype(backend.default_dtype(), copy=False)

    def daily_history(self, sample: FlowSample) -> np.ndarray:
        """Scaled same-slot-of-day series, shape ``(daily, n, 2)``."""
        d = self.dims.daily
        demand = sample.long_outflow.row_sums()[-d:]
        supply = sample.long_inflow.row_sums()[-d:]
        scaled = np.stack([demand, supply], axis=2) / self.dims.input_scale
        return scaled.astype(backend.default_dtype(), copy=False)

    def station_features(self, sample: FlowSample) -> np.ndarray:
        """Flattened per-station feature vector, shape ``(n, f)``.

        Concatenates recent and daily histories — the common "tabular"
        input of the MLP/GCN-family baselines.
        """
        recent = self.recent_history(sample)  # (h, n, 2)
        parts = [recent.transpose(1, 0, 2).reshape(self.dims.num_stations, -1)]
        if self.dims.daily:
            daily = self.daily_history(sample)
            parts.append(daily.transpose(1, 0, 2).reshape(self.dims.num_stations, -1))
        return np.concatenate(parts, axis=1)

    @property
    def station_feature_width(self) -> int:
        return 2 * (self.dims.history + self.dims.daily)

    def forward(self, sample: FlowSample) -> tuple[Tensor, Tensor]:
        raise NotImplementedError


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetrically normalised adjacency with self-loops (Kipf-Welling).

    ``A_hat = D^{-1/2} (A + I) D^{-1/2}`` — the propagation matrix of
    the GCN-family baselines.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    with_loops = adjacency + np.eye(len(adjacency))
    degrees = with_loops.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
    return with_loops * inv_sqrt[:, None] * inv_sqrt[None, :]


def distance_adjacency(
    dataset: BikeShareDataset, sigma_km: float | None = None, threshold: float = 0.1
) -> np.ndarray:
    """Gaussian distance-kernel adjacency (the locality prior).

    ``A_ij = exp(-d_ij^2 / sigma^2)`` thresholded to sparsify — the
    standard construction of the distance-graph baselines (GCNN, MGNN,
    ASTGCN, STSGCN, GBike all start from it).
    """
    distances = dataset.registry.distance_matrix()
    if sigma_km is None:
        off_diag = distances[~np.eye(len(distances), dtype=bool)]
        sigma_km = float(np.median(off_diag)) if off_diag.size else 1.0
    kernel = np.exp(-((distances / max(sigma_km, 1e-9)) ** 2))
    kernel[kernel < threshold] = 0.0
    np.fill_diagonal(kernel, 0.0)
    return kernel


def correlation_adjacency(dataset: BikeShareDataset, threshold: float = 0.3) -> np.ndarray:
    """Demand-pattern correlation adjacency over the training split."""
    train_idx, _, _ = dataset.split_indices()
    series = dataset.demand[: train_idx[-1] + 1]
    centered = series - series.mean(axis=0, keepdims=True)
    stds = centered.std(axis=0)
    stds[stds == 0] = 1.0
    corr = (centered / stds).T @ (centered / stds) / len(series)
    corr = np.clip(corr, -1.0, 1.0)
    adjacency = np.where(corr >= threshold, corr, 0.0)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


def interaction_adjacency(dataset: BikeShareDataset) -> np.ndarray:
    """Aggregate-flow adjacency over the training split (ride volume)."""
    train_idx, _, _ = dataset.split_indices()
    end = train_idx[-1] + 1
    volume = (
        dataset.outflow_slots.window(0, end).total()
        + dataset.inflow_slots.window(0, end).total().T
    )
    total = volume.max()
    adjacency = volume / total if total > 0 else volume
    np.fill_diagonal(adjacency, 0.0)
    return adjacency

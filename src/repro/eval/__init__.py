"""Evaluation: paper metrics, result tables, and case-study tooling."""

from repro.eval.metrics import (
    active_station_mask,
    mae,
    rmse,
    rush_hour_mask,
    rush_hour_slots,
)
from repro.eval.evaluation import (
    EvalResult,
    Predictor,
    collect_predictions,
    evaluate_model,
)
from repro.eval.reporting import comparison_table, series_table
from repro.eval.analysis import (
    StationSummary,
    busiest_hours,
    daily_profile,
    imbalance_by_slot,
    od_concentration,
    od_matrix,
    station_summaries,
)
from repro.eval.casestudy import (
    DependencyHeatmap,
    locality_dependency_heatmap,
    model_dependency_heatmap,
    render_heatmap,
    rush_window_times,
)

__all__ = [
    "rmse",
    "mae",
    "active_station_mask",
    "rush_hour_slots",
    "rush_hour_mask",
    "EvalResult",
    "Predictor",
    "collect_predictions",
    "evaluate_model",
    "DependencyHeatmap",
    "model_dependency_heatmap",
    "locality_dependency_heatmap",
    "render_heatmap",
    "rush_window_times",
    "comparison_table",
    "series_table",
    "StationSummary",
    "station_summaries",
    "daily_profile",
    "od_matrix",
    "od_concentration",
    "imbalance_by_slot",
    "busiest_hours",
]

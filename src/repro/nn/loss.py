"""Loss functions, including the paper's joint demand-supply loss (Eq. 21)."""

from __future__ import annotations

from repro.tensor import Tensor, ops


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    _check_shapes(prediction, target)
    diff = prediction - target
    return (diff * diff).mean()


def joint_demand_supply_loss(
    demand_pred: Tensor,
    demand_true: Tensor,
    supply_pred: Tensor,
    supply_true: Tensor,
    eps: float = 1e-12,
) -> Tensor:
    """The paper's training loss (Eq. 21).

    ``L = sqrt( mean((x - x_hat)^2) + mean((y - y_hat)^2) )`` — a joint
    RMSE over demand and supply residuals across all stations. ``eps``
    keeps the square root differentiable at an exact-zero residual.
    Dispatches to the fused ``joint_rmse`` op (one recorded node for the
    whole expression).
    """
    _check_shapes(demand_pred, demand_true)
    _check_shapes(supply_pred, supply_true)
    return ops.joint_rmse(demand_pred, demand_true, supply_pred, supply_true, eps)


def _check_shapes(prediction: Tensor, target: Tensor) -> None:
    if prediction.shape != target.shape:
        raise ValueError(
            f"prediction shape {prediction.shape} != target shape {target.shape}"
        )

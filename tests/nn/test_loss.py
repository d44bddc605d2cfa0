"""Loss functions, including the paper's joint loss (Eq. 21)."""

import numpy as np
import pytest

from repro.nn import joint_demand_supply_loss, mse_loss
from repro.tensor import Tensor


class TestMSE:
    def test_value(self):
        loss = mse_loss(Tensor([1.0, 2.0]), Tensor([3.0, 2.0]))
        assert loss.item() == pytest.approx(2.0)

    def test_zero_at_perfect(self):
        assert mse_loss(Tensor([1.0]), Tensor([1.0])).item() == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_gradient(self):
        pred = Tensor([2.0, 0.0], requires_grad=True)
        mse_loss(pred, Tensor([0.0, 0.0])).backward()
        np.testing.assert_allclose(pred.grad, [2.0, 0.0])


class TestJointLoss:
    def test_matches_equation_21(self):
        demand_pred, demand_true = Tensor([1.0, 2.0]), Tensor([2.0, 4.0])
        supply_pred, supply_true = Tensor([0.0, 0.0]), Tensor([3.0, 0.0])
        loss = joint_demand_supply_loss(demand_pred, demand_true, supply_pred, supply_true)
        expected = np.sqrt((1 + 4) / 2 + 9 / 2)
        assert loss.item() == pytest.approx(expected, rel=1e-6)

    def test_zero_residual_is_differentiable(self):
        pred = Tensor([1.0, 1.0], requires_grad=True)
        loss = joint_demand_supply_loss(pred, Tensor([1.0, 1.0]), pred, Tensor([1.0, 1.0]))
        loss.backward()
        assert np.isfinite(pred.grad).all()

    def test_symmetric_in_demand_and_supply(self):
        a, b = Tensor([1.0]), Tensor([4.0])
        zero = Tensor([0.0])
        l1 = joint_demand_supply_loss(a, b, zero, zero).item()
        l2 = joint_demand_supply_loss(zero, zero, a, b).item()
        assert l1 == pytest.approx(l2)

    def test_gradient_flows_to_both_heads(self):
        demand = Tensor([2.0], requires_grad=True)
        supply = Tensor([3.0], requires_grad=True)
        joint_demand_supply_loss(
            demand, Tensor([0.0]), supply, Tensor([0.0])
        ).backward()
        assert demand.grad is not None and supply.grad is not None
        assert demand.grad[0] != 0 and supply.grad[0] != 0

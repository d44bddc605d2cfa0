"""Adam: step math against closed form, convergence; gradient clipping."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.optim import Adam, clip_grad_norm


def quadratic_step(param: Parameter) -> None:
    """Set grad of f(p) = 0.5 * ||p||^2, i.e. grad = p."""
    param.grad = param.data.copy()


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # With bias correction, the very first Adam step is ~lr * sign(g).
        p = Parameter(np.array([0.0]))
        p.grad = np.array([3.0])
        Adam([p], lr=0.01).step()
        np.testing.assert_allclose(p.data, [-0.01], atol=1e-6)

    def test_matches_reference_two_steps(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        # Reference computation.
        ref_p, m, v = 1.0, 0.0, 0.0
        for step in range(1, 3):
            grad = ref_p  # f = 0.5 p^2
            p.grad = np.array([p.data[0]])
            opt.step()
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            m_hat = m / (1 - 0.9**step)
            v_hat = v / (1 - 0.999**step)
            ref_p -= 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.data, [ref_p], atol=1e-10)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            quadratic_step(p)
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0]))
        Adam([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_does_not_mutate_grad(self):
        p = Parameter(np.array([2.0, -1.0]))
        grad = np.array([0.5, 0.5])
        p.grad = grad
        Adam([p], lr=0.1).step()
        np.testing.assert_allclose(grad, [0.5, 0.5])


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])  # norm 0.5
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_clips_to_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])  # norm 5
        clip_grad_norm([p], max_norm=1.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_global_norm_across_params(self):
        p1, p2 = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        p1.grad, p2.grad = np.array([3.0]), np.array([4.0])
        norm = clip_grad_norm([p1, p2], max_norm=10.0)
        assert norm == pytest.approx(5.0)

    def test_ignores_none_grads(self):
        p1, p2 = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        p1.grad = np.array([2.0])
        norm = clip_grad_norm([p1, p2], max_norm=1.0)
        assert norm == pytest.approx(2.0)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([Parameter(np.zeros(1))], max_norm=0.0)

"""Numerical gradient checks: autograd vs central finite differences.

Each case builds a scalar function of one input tensor and compares the
backward-pass gradient to a finite-difference estimate. This is the
ground-truth test of the engine — if these pass, every model gradient
in the repo is trustworthy.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, concat, maximum, minimum, ops, stack, where


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(x)
        flat[i] = original - eps
        down = fn(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def check(fn_tensor, fn_numpy, x: np.ndarray, atol: float = 1e-6):
    tensor = Tensor(x.copy(), requires_grad=True)
    out = fn_tensor(tensor)
    out.backward()
    expected = numerical_grad(fn_numpy, x.copy())
    np.testing.assert_allclose(tensor.grad, expected, atol=atol, rtol=1e-4)


RNG = np.random.default_rng(2024)


class TestUnaryGrads:
    @pytest.mark.parametrize(
        "name,tensor_fn,numpy_fn,domain",
        [
            ("exp", lambda x: x.exp().sum(), lambda x: np.exp(x).sum(), (-1, 1)),
            ("log", lambda x: x.log().sum(), lambda x: np.log(x).sum(), (0.5, 2)),
            ("sqrt", lambda x: x.sqrt().sum(), lambda x: np.sqrt(x).sum(), (0.5, 2)),
            ("neg", lambda x: (-x).sum(), lambda x: (-x).sum(), (-1, 1)),
            ("sigmoid", lambda x: x.sigmoid().sum(), lambda x: (1 / (1 + np.exp(-x))).sum(), (-2, 2)),
            ("tanh", lambda x: x.tanh().sum(), lambda x: np.tanh(x).sum(), (-2, 2)),
            ("abs", lambda x: x.abs().sum(), lambda x: np.abs(x).sum(), (0.2, 2)),
            ("pow3", lambda x: (x**3).sum(), lambda x: (x**3).sum(), (-2, 2)),
            ("square", lambda x: (x * x).sum(), lambda x: (x * x).sum(), (-2, 2)),
        ],
    )
    def test_unary(self, name, tensor_fn, numpy_fn, domain):
        x = RNG.uniform(*domain, size=(3, 4))
        check(tensor_fn, numpy_fn, x)

    def test_relu_away_from_kink(self):
        x = RNG.uniform(0.2, 2.0, size=(3, 4)) * RNG.choice([-1.0, 1.0], size=(3, 4))
        check(lambda t: t.relu().sum(), lambda a: np.maximum(a, 0).sum(), x)

    def test_elu_away_from_kink(self):
        x = RNG.uniform(0.2, 2.0, size=(3, 4)) * RNG.choice([-1.0, 1.0], size=(3, 4))
        check(
            lambda t: t.elu(0.7).sum(),
            lambda a: np.where(a > 0, a, 0.7 * (np.exp(a) - 1)).sum(),
            x,
        )

    def test_clip_interior(self):
        x = RNG.uniform(-0.4, 0.4, size=(5,))
        check(lambda t: t.clip(-1, 1).sum(), lambda a: np.clip(a, -1, 1).sum(), x)


class TestBinaryGrads:
    def test_mul_broadcast(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4,))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta * tb).sum().backward()
        np.testing.assert_allclose(
            ta.grad, numerical_grad(lambda x: (x * b).sum(), a.copy()), atol=1e-6
        )
        np.testing.assert_allclose(
            tb.grad, numerical_grad(lambda x: (a * x).sum(), b.copy()), atol=1e-6
        )

    def test_div_grads_both_sides(self):
        a = RNG.uniform(0.5, 2.0, size=(3,))
        b = RNG.uniform(0.5, 2.0, size=(3,))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta / tb).sum().backward()
        np.testing.assert_allclose(ta.grad, 1.0 / b, atol=1e-8)
        np.testing.assert_allclose(tb.grad, -a / b**2, atol=1e-8)

    def test_sub_broadcast_column(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(3, 1))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        ((ta - tb) ** 2).sum().backward()
        expected_b = numerical_grad(lambda x: ((a - x) ** 2).sum(), b.copy())
        np.testing.assert_allclose(tb.grad, expected_b, atol=1e-5)

    def test_maximum_minimum(self):
        a = RNG.normal(size=(6,))
        b = RNG.normal(size=(6,))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (maximum(ta, tb).sum() + minimum(ta, tb).sum()).backward()
        # max + min = a + b, so both grads are 1 everywhere.
        np.testing.assert_allclose(ta.grad, np.ones(6))
        np.testing.assert_allclose(tb.grad, np.ones(6))

    def test_where(self):
        cond = RNG.random(5) > 0.5
        a = RNG.normal(size=(5,))
        ta = Tensor(a, requires_grad=True)
        where(cond, ta * 2.0, ta * 3.0).sum().backward()
        np.testing.assert_allclose(ta.grad, np.where(cond, 2.0, 3.0))


class TestMatmulGrads:
    def test_2d(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(
            ta.grad, numerical_grad(lambda x: (x @ b).sum(), a.copy()), atol=1e-6
        )
        np.testing.assert_allclose(
            tb.grad, numerical_grad(lambda x: (a @ x).sum(), b.copy()), atol=1e-6
        )

    def test_vector_matrix(self):
        v = RNG.normal(size=(4,))
        m = RNG.normal(size=(4, 3))
        tv, tm = Tensor(v, requires_grad=True), Tensor(m, requires_grad=True)
        (tv @ tm).sum().backward()
        np.testing.assert_allclose(
            tv.grad, numerical_grad(lambda x: (x @ m).sum(), v.copy()), atol=1e-6
        )
        np.testing.assert_allclose(
            tm.grad, numerical_grad(lambda x: (v @ x).sum(), m.copy()), atol=1e-6
        )

    def test_matrix_vector(self):
        v = RNG.normal(size=(4,))
        m = RNG.normal(size=(3, 4))
        tv, tm = Tensor(v, requires_grad=True), Tensor(m, requires_grad=True)
        (tm @ tv).sum().backward()
        np.testing.assert_allclose(
            tv.grad, numerical_grad(lambda x: (m @ x).sum(), v.copy()), atol=1e-6
        )
        np.testing.assert_allclose(
            tm.grad, numerical_grad(lambda x: (x @ v).sum(), m.copy()), atol=1e-6
        )

    def test_batched(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(2, 4, 2))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(
            ta.grad, numerical_grad(lambda x: (x @ b).sum(), a.copy()), atol=1e-6
        )

    def test_inner_product(self):
        v = RNG.normal(size=(5,))
        w = RNG.normal(size=(5,))
        tv, tw = Tensor(v, requires_grad=True), Tensor(w, requires_grad=True)
        (tv @ tw).backward()
        np.testing.assert_allclose(tv.grad, w)
        np.testing.assert_allclose(tw.grad, v)


class TestShapeGrads:
    def test_reshape(self):
        x = RNG.normal(size=(2, 6))
        check(
            lambda t: (t.reshape(3, 4) ** 2).sum(),
            lambda a: (a.reshape(3, 4) ** 2).sum(),
            x,
        )

    def test_transpose(self):
        x = RNG.normal(size=(2, 3, 4))
        check(
            lambda t: (t.transpose((1, 2, 0)) ** 3).sum(),
            lambda a: (np.transpose(a, (1, 2, 0)) ** 3).sum(),
            x,
        )

    def test_getitem_slice(self):
        x = RNG.normal(size=(6,))
        check(lambda t: (t[1:4] ** 2).sum(), lambda a: (a[1:4] ** 2).sum(), x)

    def test_getitem_fancy_repeated_indices(self):
        x = RNG.normal(size=(5,))
        idx = [0, 0, 2]
        check(
            lambda t: (t[idx] ** 2).sum(),
            lambda a: (a[idx] ** 2).sum(),
            x,
        )

    def test_concat(self):
        x = RNG.normal(size=(2, 3))
        check(
            lambda t: (concat([t, t * 2.0], axis=1) ** 2).sum(),
            lambda a: (np.concatenate([a, a * 2.0], axis=1) ** 2).sum(),
            x,
        )

    def test_stack(self):
        x = RNG.normal(size=(3,))
        check(
            lambda t: (stack([t, t * 3.0]) ** 2).sum(),
            lambda a: (np.stack([a, a * 3.0]) ** 2).sum(),
            x,
        )


class TestReductionGrads:
    def test_sum_axis(self):
        x = RNG.normal(size=(3, 4))
        check(
            lambda t: (t.sum(axis=0) ** 2).sum(),
            lambda a: (a.sum(axis=0) ** 2).sum(),
            x,
        )

    def test_mean_axis_keepdims(self):
        x = RNG.normal(size=(3, 4))
        check(
            lambda t: (t - t.mean(axis=1, keepdims=True)).abs().sum(),
            lambda a: np.abs(a - a.mean(axis=1, keepdims=True)).sum(),
            x,
            atol=1e-5,
        )

    def test_max_axis_unique(self):
        x = RNG.normal(size=(3, 4))  # ties have measure zero
        check(
            lambda t: (t.max(axis=1) ** 2).sum(),
            lambda a: (a.max(axis=1) ** 2).sum(),
            x,
        )

    def test_max_ties_split_gradient(self):
        x = Tensor([2.0, 2.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])


class TestSoftmaxGrads:
    def test_softmax(self):
        x = RNG.normal(size=(2, 5))
        weight = RNG.normal(size=(2, 5))

        def fn_tensor(t):
            return (t.softmax(axis=-1) * Tensor(weight)).sum()

        def fn_numpy(a):
            e = np.exp(a - a.max(axis=-1, keepdims=True))
            return (e / e.sum(axis=-1, keepdims=True) * weight).sum()

        check(fn_tensor, fn_numpy, x)

    def test_masked_softmax(self):
        x = RNG.normal(size=(2, 5))
        mask = RNG.random((2, 5)) > 0.3
        mask[:, 0] = True  # no empty rows
        weight = RNG.normal(size=(2, 5))

        def fn_tensor(t):
            return (ops.masked_softmax(t, mask) * Tensor(weight)).sum()

        def fn_numpy(a):
            logits = np.where(mask, a, -1e30)
            e = np.exp(logits - logits.max(axis=-1, keepdims=True)) * mask
            return (e / e.sum(axis=-1, keepdims=True) * weight).sum()

        check(fn_tensor, fn_numpy, x)


class TestFusedOpGrads:
    """Numerical checks for the fused multi-input kernels."""

    def test_gated_fusion_all_inputs(self):
        short = RNG.normal(size=(3, 3))
        long = RNG.normal(size=(3, 3))
        gate = RNG.normal(size=(3, 3))
        weight = RNG.normal(size=(3, 3))

        def reference(s, lng, g):
            beta = 1.0 / (1.0 + np.exp(-(g * s - g * lng)))
            return ((beta * s + (1.0 - beta) * lng) * weight).sum()

        for index, arrays in enumerate([short, long, gate]):
            def fn_tensor(t, index=index):
                inputs = [Tensor(short), Tensor(long), Tensor(gate)]
                inputs[index] = t
                return (ops.gated_fusion(*inputs) * Tensor(weight)).sum()

            def fn_numpy(a, index=index):
                inputs = [short, long, gate]
                inputs[index] = a
                return reference(*inputs)

            check(fn_tensor, fn_numpy, arrays.copy())

    def test_joint_rmse_both_predictions(self):
        demand_true = RNG.normal(size=5)
        supply_true = RNG.normal(size=5)
        other_pred = RNG.normal(size=5)

        def check_side(demand_side: bool):
            def fn_tensor(t):
                dp = t if demand_side else Tensor(other_pred)
                sp = Tensor(other_pred) if demand_side else t
                return ops.joint_rmse(dp, Tensor(demand_true), sp, Tensor(supply_true))

            def fn_numpy(a):
                dp = a if demand_side else other_pred
                sp = other_pred if demand_side else a
                return np.sqrt(
                    np.mean((dp - demand_true) ** 2)
                    + np.mean((sp - supply_true) ** 2)
                    + 1e-12
                )

            check(fn_tensor, fn_numpy, RNG.normal(size=5))

        check_side(True)
        check_side(False)

    def test_joint_rmse_matches_unfused_value(self):
        from repro.nn import joint_demand_supply_loss

        dp, dt = Tensor(RNG.normal(size=4)), Tensor(RNG.normal(size=4))
        sp, st = Tensor(RNG.normal(size=4)), Tensor(RNG.normal(size=4))
        fused = joint_demand_supply_loss(dp, dt, sp, st).item()
        unfused = np.sqrt(
            np.mean((dp.data - dt.data) ** 2)
            + np.mean((sp.data - st.data) ** 2)
            + 1e-12
        )
        np.testing.assert_allclose(fused, unfused, rtol=0, atol=0)

    def _window(self, channels=4, n=3):
        dense = RNG.poisson(1.5, size=(channels, n, n)).astype(float)
        channel, cell = np.nonzero(dense.reshape(channels, -1))
        return dense, channel, cell, dense.reshape(channels, -1)[channel, cell]

    def test_conv1x1_fused_relu_weight_and_bias(self):
        dense, channel, index, count = self._window()
        w = RNG.normal(size=4)
        b = RNG.normal(size=(3, 3))
        scale = 0.4

        def fn_tensor_w(t):
            return ops.sparse_conv1x1(
                channel, index, count, t, Tensor(b), scale=scale, relu=True
            ).sum()

        def fn_numpy_w(a):
            pre = np.tensordot(a, scale * dense, axes=1) + b
            return (pre * (pre > 0)).sum()

        check(fn_tensor_w, fn_numpy_w, w.copy())

        def fn_tensor_b(t):
            return ops.sparse_conv1x1(
                channel, index, count, Tensor(w), t, scale=scale, relu=True
            ).sum()

        def fn_numpy_b(a):
            pre = np.tensordot(w, scale * dense, axes=1) + a
            return (pre * (pre > 0)).sum()

        check(fn_tensor_b, fn_numpy_b, b.copy())

    def test_conv1x1_leaf_input_gets_no_gradient_compute(self):
        # The window is data, not a Tensor: backward returns gradients
        # for the weight and bias only.
        _, channel, index, count = self._window()
        w = Tensor(RNG.normal(size=4), requires_grad=True)
        b = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        out = ops.sparse_conv1x1(channel, index, count, w, b, relu=True)
        assert len(out._parents) == 2
        out.sum().backward()
        assert w.grad is not None and b.grad is not None

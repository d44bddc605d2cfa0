"""Forward-pass correctness of every primitive op against numpy."""

import numpy as np
import pytest

from repro.tensor import Tensor, concat, maximum, minimum, ops, stack, where


def t(a, grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


class TestArithmetic:
    def test_add(self):
        np.testing.assert_allclose((t([1, 2]) + t([3, 4])).data, [4, 6])

    def test_add_scalar_broadcast(self):
        np.testing.assert_allclose((t([1, 2]) + 5.0).data, [6, 7])

    def test_radd(self):
        np.testing.assert_allclose((5.0 + t([1, 2])).data, [6, 7])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((t([5, 5]) - t([1, 2])).data, [4, 3])
        np.testing.assert_allclose((10.0 - t([1, 2])).data, [9, 8])

    def test_mul_div(self):
        np.testing.assert_allclose((t([2, 3]) * t([4, 5])).data, [8, 15])
        np.testing.assert_allclose((t([8, 9]) / t([2, 3])).data, [4, 3])

    def test_rtruediv(self):
        np.testing.assert_allclose((6.0 / t([2, 3])).data, [3, 2])

    def test_neg(self):
        np.testing.assert_allclose((-t([1, -2])).data, [-1, 2])

    def test_pow(self):
        np.testing.assert_allclose((t([2, 3]) ** 2).data, [4, 9])

    def test_broadcast_row_plus_column(self):
        row = t(np.ones((1, 3)))
        col = t(np.ones((4, 1)))
        assert (row + col).shape == (4, 3)


class TestMatmul:
    def test_2d(self):
        a, b = np.ones((2, 3)), np.arange(6.0).reshape(3, 2)
        np.testing.assert_allclose((t(a) @ t(b)).data, a @ b)

    def test_vector_matrix(self):
        v, m = np.array([1.0, 2.0]), np.array([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_allclose((t(v) @ t(m)).data, v @ m)

    def test_matrix_vector(self):
        v, m = np.array([1.0, 2.0]), np.array([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_allclose((t(m) @ t(v)).data, m @ v)

    def test_inner_product(self):
        v = np.array([1.0, 2.0, 3.0])
        assert (t(v) @ t(v)).item() == pytest.approx(14.0)

    def test_batched(self):
        a = np.arange(12.0).reshape(2, 2, 3)
        b = np.arange(12.0).reshape(2, 3, 2)
        np.testing.assert_allclose((t(a) @ t(b)).data, a @ b)


class TestShape:
    def test_reshape(self):
        assert t(np.zeros(6)).reshape(2, 3).shape == (2, 3)

    def test_reshape_tuple_arg(self):
        assert t(np.zeros(6)).reshape((3, 2)).shape == (3, 2)

    def test_transpose_default(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(t(a).T.data, a.T)

    def test_transpose_axes(self):
        a = np.zeros((2, 3, 4))
        assert t(a).transpose((2, 0, 1)).shape == (4, 2, 3)

    def test_getitem_row(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(t(a)[1].data, a[1])

    def test_getitem_slice(self):
        a = np.arange(10.0)
        np.testing.assert_allclose(t(a)[2:5].data, a[2:5])

    def test_getitem_fancy(self):
        a = np.arange(10.0)
        np.testing.assert_allclose(t(a)[[0, 0, 3]].data, a[[0, 0, 3]])

    def test_concat(self):
        c = concat([t(np.ones((2, 2))), t(np.zeros((2, 3)))], axis=1)
        assert c.shape == (2, 5)

    def test_stack(self):
        s = stack([t([1.0, 2.0]), t([3.0, 4.0])], axis=0)
        np.testing.assert_allclose(s.data, [[1, 2], [3, 4]])


class TestReductions:
    def test_sum_all(self):
        assert t([[1.0, 2.0], [3.0, 4.0]]).sum().item() == 10.0

    def test_sum_axis_keepdims(self):
        s = t(np.ones((2, 3))).sum(axis=1, keepdims=True)
        assert s.shape == (2, 1)

    def test_mean(self):
        assert t([2.0, 4.0]).mean().item() == 3.0

    def test_mean_axis(self):
        m = t(np.arange(6.0).reshape(2, 3)).mean(axis=0)
        np.testing.assert_allclose(m.data, [1.5, 2.5, 3.5])

    def test_max(self):
        assert t([[1.0, 9.0], [3.0, 4.0]]).max().item() == 9.0

    def test_max_axis(self):
        m = t([[1.0, 9.0], [3.0, 4.0]]).max(axis=1)
        np.testing.assert_allclose(m.data, [9, 4])


class TestNonlinearities:
    def test_exp_log_roundtrip(self):
        x = t([0.5, 1.5])
        np.testing.assert_allclose(x.exp().log().data, x.data, atol=1e-12)

    def test_sqrt(self):
        np.testing.assert_allclose(t([4.0, 9.0]).sqrt().data, [2, 3])

    def test_abs(self):
        np.testing.assert_allclose(t([-2.0, 3.0]).abs().data, [2, 3])

    def test_relu(self):
        np.testing.assert_allclose(t([-1.0, 0.0, 2.0]).relu().data, [0, 0, 2])

    def test_elu_positive_is_identity(self):
        np.testing.assert_allclose(t([1.0, 2.0]).elu().data, [1, 2])

    def test_elu_negative(self):
        out = t([-1.0]).elu(alpha=1.0)
        assert out.data[0] == pytest.approx(np.exp(-1.0) - 1.0)

    def test_sigmoid_symmetric(self):
        s = t([0.0]).sigmoid()
        assert s.item() == pytest.approx(0.5)

    def test_tanh(self):
        np.testing.assert_allclose(t([0.0]).tanh().data, [0.0])

    def test_clip(self):
        np.testing.assert_allclose(
            t([-5.0, 0.5, 5.0]).clip(0.0, 1.0).data, [0, 0.5, 1.0]
        )

    def test_softmax_rows_sum_to_one(self):
        s = t(np.random.default_rng(0).normal(size=(4, 5))).softmax(axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4))

    def test_softmax_stability_large_values(self):
        s = t([1000.0, 1000.0]).softmax()
        np.testing.assert_allclose(s.data, [0.5, 0.5])

    def test_masked_softmax_respects_mask(self):
        x = t([[1.0, 2.0, 3.0]])
        mask = np.array([[True, False, True]])
        out = ops.masked_softmax(x, mask)
        assert out.data[0, 1] == 0.0
        assert out.data[0].sum() == pytest.approx(1.0)

    def test_masked_softmax_all_false_row_is_zero(self):
        x = t([[1.0, 2.0]])
        out = ops.masked_softmax(x, np.array([[False, False]]))
        np.testing.assert_allclose(out.data, [[0.0, 0.0]])


class TestSelection:
    def test_where(self):
        cond = np.array([True, False, True])
        out = where(cond, t([1.0, 1.0, 1.0]), t([9.0, 9.0, 9.0]))
        np.testing.assert_allclose(out.data, [1, 9, 1])

    def test_maximum_minimum(self):
        a, b = t([1.0, 5.0]), t([3.0, 2.0])
        np.testing.assert_allclose(maximum(a, b).data, [3, 5])
        np.testing.assert_allclose(minimum(a, b).data, [1, 2])


class TestDropoutMask:
    def test_rate_zero_is_ones(self):
        mask = ops.dropout_mask((10,), 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(mask, np.ones(10))

    def test_mask_values(self):
        mask = ops.dropout_mask((1000,), 0.5, np.random.default_rng(0))
        assert set(np.unique(mask)).issubset({0.0, 2.0})

    def test_mask_preserves_expectation(self):
        mask = ops.dropout_mask((100_000,), 0.3, np.random.default_rng(0))
        assert mask.mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ops.dropout_mask((3,), 1.0, np.random.default_rng(0))


class TestSdpAttention:
    def chain(self, q, k, v):
        """The unfused reference: scores -> shifted softmax -> mix."""
        scores = q @ k.T
        scores = scores - scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        return scores @ v

    def test_full_pass_bitwise_vs_reference(self, rng):
        n, d = 8, 5
        q, k, v = rng.random((n, d)), rng.random((n, d)), rng.random((n, d))
        out = ops.sdp_attention(Tensor(q), Tensor(k), Tensor(v))
        np.testing.assert_array_equal(out.data, self.chain(q, k, v))

    def test_gradients_match_recorded_reference(self, rng):
        n, d = 6, 4
        q, k, v = rng.random((n, d)), rng.random((n, d)), rng.random((n, d))
        upstream = rng.random((n, d))

        q_t = Tensor(q, requires_grad=True)
        k_t = Tensor(k, requires_grad=True)
        v_t = Tensor(v, requires_grad=True)
        out = ops.sdp_attention(q_t, k_t, v_t)
        (out * Tensor(upstream)).sum().backward()

        q_r = Tensor(q, requires_grad=True)
        k_r = Tensor(k, requires_grad=True)
        v_r = Tensor(v, requires_grad=True)
        ref = ops.row_softmax(q_r @ k_r.transpose()) @ v_r
        (ref * Tensor(upstream)).sum().backward()

        for got, want in ((q_t, q_r), (k_t, k_r), (v_t, v_r)):
            np.testing.assert_allclose(got.grad, want.grad, rtol=1e-12, atol=1e-14)

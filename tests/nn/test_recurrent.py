"""Recurrent cells and encoders: shapes, gates, gradient flow."""

import numpy as np
import pytest

from repro.nn import LSTMCell, LSTMEncoder, RNNCell, RNNEncoder
from repro.tensor import Tensor, no_grad


class TestCells:
    def test_rnn_cell_shape(self, rng):
        cell = RNNCell(4, 8, rng)
        h = cell(Tensor(rng.normal(size=(3, 4))), Tensor(np.zeros((3, 8))))
        assert h.shape == (3, 8)

    def test_rnn_cell_bounded_by_tanh(self, rng):
        cell = RNNCell(4, 8, rng)
        h = cell(Tensor(rng.normal(size=(3, 4)) * 100), Tensor(np.zeros((3, 8))))
        assert (np.abs(h.data) <= 1.0).all()

    def test_lstm_cell_shapes(self, rng):
        cell = LSTMCell(4, 8, rng)
        h0, c0 = Tensor(np.zeros((3, 8))), Tensor(np.zeros((3, 8)))
        h, c = cell(Tensor(rng.normal(size=(3, 4))), (h0, c0))
        assert h.shape == (3, 8)
        assert c.shape == (3, 8)

    def test_lstm_forget_bias_initialized_to_one(self, rng):
        cell = LSTMCell(4, 8, rng)
        np.testing.assert_allclose(cell.bias.data[8:16], np.ones(8))
        np.testing.assert_allclose(cell.bias.data[:8], np.zeros(8))


class TestEncoders:
    @pytest.mark.parametrize("encoder_cls", [RNNEncoder, LSTMEncoder])
    def test_final_state_shape(self, encoder_cls, rng):
        encoder = encoder_cls(2, 6, rng)
        out = encoder(Tensor(rng.normal(size=(7, 4, 2))))
        assert out.shape == (4, 6)

    @pytest.mark.parametrize("encoder_cls", [RNNEncoder, LSTMEncoder])
    def test_gradients_reach_all_parameters(self, encoder_cls, rng):
        encoder = encoder_cls(2, 4, rng)
        encoder(Tensor(rng.normal(size=(5, 3, 2)))).sum().backward()
        for param in encoder.parameters():
            assert param.grad is not None
            assert np.abs(param.grad).sum() > 0

    @pytest.mark.parametrize("encoder_cls", [RNNEncoder, LSTMEncoder])
    def test_float32_encoder_stays_float32(self, encoder_cls, rng):
        """The initial states take the sequence's dtype, so a cast encoder
        runs single precision end to end."""
        encoder = encoder_cls(2, 4, rng).to(np.float32)
        sequence = Tensor(rng.normal(size=(5, 3, 2)), dtype=np.float32)
        with no_grad():
            out = encoder(sequence)
        assert out.dtype == np.float32

    def test_encoder_deterministic(self):
        x = np.random.default_rng(0).normal(size=(5, 3, 2))
        outs = []
        for _ in range(2):
            encoder = LSTMEncoder(2, 4, np.random.default_rng(11))
            outs.append(encoder(Tensor(x)).data)
        np.testing.assert_allclose(outs[0], outs[1])

    def test_order_sensitivity(self, rng):
        """Recurrent encoders must care about sequence order."""
        encoder = LSTMEncoder(1, 4, rng)
        seq = rng.normal(size=(6, 1, 1))
        forward = encoder(Tensor(seq)).data
        backward = encoder(Tensor(seq[::-1].copy())).data
        assert not np.allclose(forward, backward)

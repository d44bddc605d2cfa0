"""Recurrent cells and sequence encoders (RNN, LSTM, GRU).

These power the RNN and LSTM baselines from the paper's Table I, and the
GRU used inside the ASTGCN baseline's temporal branches. Cells process
one time step; the ``*Encoder`` wrappers unroll a whole ``(T, B, F)``
sequence and return the final hidden state.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor


class RNNCell(Module):
    """Vanilla Elman cell: ``h' = tanh(x W_x + h W_h + b)``."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_x = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.weight_h = Parameter(init.xavier_uniform((hidden_size, hidden_size), rng))
        self.bias = Parameter(init.zeros((hidden_size,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return (x @ self.weight_x + h @ self.weight_h + self.bias).tanh()


class LSTMCell(Module):
    """LSTM cell with the standard input/forget/cell/output gates."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Fused gate weights: columns ordered [input, forget, cell, output].
        self.weight_x = Parameter(init.xavier_uniform((input_size, 4 * hidden_size), rng))
        self.weight_h = Parameter(init.xavier_uniform((hidden_size, 4 * hidden_size), rng))
        bias = init.zeros((4 * hidden_size,))
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias trick
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        gates = x @ self.weight_x + h @ self.weight_h + self.bias
        hs = self.hidden_size
        i = gates[..., 0:hs].sigmoid()
        f = gates[..., hs : 2 * hs].sigmoid()
        g = gates[..., 2 * hs : 3 * hs].tanh()
        o = gates[..., 3 * hs : 4 * hs].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next


class GRUCell(Module):
    """GRU cell (update/reset gates + candidate state)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_x = Parameter(init.xavier_uniform((input_size, 3 * hidden_size), rng))
        self.weight_h = Parameter(init.xavier_uniform((hidden_size, 3 * hidden_size), rng))
        self.bias = Parameter(init.zeros((3 * hidden_size,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        hs = self.hidden_size
        x_proj = x @ self.weight_x + self.bias
        h_proj = h @ self.weight_h
        z = (x_proj[..., 0:hs] + h_proj[..., 0:hs]).sigmoid()
        r = (x_proj[..., hs : 2 * hs] + h_proj[..., hs : 2 * hs]).sigmoid()
        candidate = (x_proj[..., 2 * hs : 3 * hs] + r * h_proj[..., 2 * hs : 3 * hs]).tanh()
        return (1.0 - z) * h + z * candidate


class RNNEncoder(Module):
    """Unroll an :class:`RNNCell` over a ``(T, B, F)`` sequence."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.cell = RNNCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(self, sequence: Tensor) -> Tensor:
        steps, batch = sequence.shape[0], sequence.shape[1]
        h = Tensor(np.zeros((batch, self.hidden_size)), dtype=sequence.data.dtype)
        for t in range(steps):
            h = self.cell(sequence[t], h)
        return h


class LSTMEncoder(Module):
    """Unroll an :class:`LSTMCell` over a ``(T, B, F)`` sequence."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(self, sequence: Tensor) -> Tensor:
        steps, batch = sequence.shape[0], sequence.shape[1]
        h = Tensor(np.zeros((batch, self.hidden_size)), dtype=sequence.data.dtype)
        c = Tensor(np.zeros((batch, self.hidden_size)), dtype=sequence.data.dtype)
        for t in range(steps):
            h, c = self.cell(sequence[t], (h, c))
        return h


class GRUEncoder(Module):
    """Unroll a :class:`GRUCell` over a ``(T, B, F)`` sequence."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng)
        self.hidden_size = hidden_size

    def forward(self, sequence: Tensor) -> Tensor:
        steps, batch = sequence.shape[0], sequence.shape[1]
        h = Tensor(np.zeros((batch, self.hidden_size)), dtype=sequence.data.dtype)
        for t in range(steps):
            h = self.cell(sequence[t], h)
        return h

"""Neural network building blocks on top of :mod:`repro.tensor`.

Provides the Module/Parameter system, the layers (Linear, Conv1x1,
Dropout), the ReLU/ELU activations, RNN/LSTM cells and encoders,
attention primitives, weight initializers and loss functions —
everything the STGNN-DJD model and the deep baselines are assembled
from.
"""

from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.layers import Conv1x1, Dropout, Linear
from repro.nn.activations import ELU, ReLU
from repro.nn.recurrent import LSTMCell, LSTMEncoder, RNNCell, RNNEncoder
from repro.nn.attention import PairwiseAdditiveAttention, ScaledDotProductAttention
from repro.nn.loss import joint_demand_supply_loss, mse_loss
from repro.nn import init

__all__ = [
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "Conv1x1",
    "Dropout",
    "ReLU",
    "ELU",
    "RNNCell",
    "LSTMCell",
    "RNNEncoder",
    "LSTMEncoder",
    "PairwiseAdditiveAttention",
    "ScaledDotProductAttention",
    "mse_loss",
    "joint_demand_supply_loss",
    "init",
]

"""The paper's training optimizer (Adam) and global-norm gradient clipping."""

from repro.optim.adam import Adam
from repro.optim.clip import clip_grad_norm

__all__ = [
    "Adam",
    "clip_grad_norm",
]

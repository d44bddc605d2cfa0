"""Module system: registration, traversal, state dicts, modes."""

import numpy as np
import pytest

from repro.nn import Linear, Module, ModuleList, Parameter
from repro.tensor import Tensor


class Toy(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.ones((2, 2)))
        self.child = Linear(2, 3, rng=np.random.default_rng(0))

    def forward(self, x):
        return self.child(x @ self.w)


class TestRegistration:
    def test_parameters_discovered(self):
        toy = Toy()
        names = [name for name, _ in toy.named_parameters()]
        assert "w" in names
        assert "child.weight" in names
        assert "child.bias" in names

    def test_num_parameters(self):
        toy = Toy()
        assert toy.num_parameters() == 4 + 6 + 3

    def test_modules_walk(self):
        toy = Toy()
        assert len(list(toy.modules())) == 2

    def test_call_invokes_forward(self):
        toy = Toy()
        out = toy(Tensor(np.ones((1, 2))))
        assert out.shape == (1, 3)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(None)


class TestTrainEval:
    def test_eval_propagates(self):
        toy = Toy()
        toy.eval()
        assert not toy.training
        assert not toy.child.training

    def test_train_restores(self):
        toy = Toy().eval()
        toy.train()
        assert toy.child.training


class TestStateDict:
    def test_roundtrip(self):
        toy1, toy2 = Toy(), Toy()
        toy2.child.weight.data[:] = 99.0
        toy2.load_state_dict(toy1.state_dict())
        np.testing.assert_allclose(toy2.child.weight.data, toy1.child.weight.data)

    def test_state_dict_is_a_copy(self):
        toy = Toy()
        state = toy.state_dict()
        state["w"][:] = 42.0
        assert not np.allclose(toy.w.data, 42.0)

    def test_missing_key_rejected(self):
        toy = Toy()
        state = toy.state_dict()
        del state["w"]
        with pytest.raises(KeyError):
            toy.load_state_dict(state)

    def test_unexpected_key_rejected(self):
        toy = Toy()
        state = toy.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            toy.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        toy = Toy()
        state = toy.state_dict()
        state["w"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            toy.load_state_dict(state)


class TestZeroGrad:
    def test_clears_all_gradients(self):
        toy = Toy()
        out = toy(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert toy.w.grad is not None
        toy.zero_grad()
        assert all(p.grad is None for p in toy.parameters())


class TestContainers:
    def test_module_list_registers(self):
        layers = ModuleList([Linear(2, 2, rng=np.random.default_rng(i)) for i in range(3)])
        assert len(layers) == 3
        assert len(layers.parameters()) == 6

    def test_module_list_append_and_index(self):
        layers = ModuleList()
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        layers.append(layer)
        assert layers[0] is layer

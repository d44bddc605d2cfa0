"""``inference_mode`` semantics: grad gating, dtypes, detach.

These tests pin the contract the serving path relies on: inside the
context no graph state is allocated, op results keep their inputs'
dtype, and the grad flag is restored even when the body raises.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, inference_mode, is_grad_enabled, no_grad


class TestGradGating:
    def test_requires_grad_forced_off(self):
        with inference_mode():
            t = Tensor([1.0, 2.0], requires_grad=True)
        assert not t.requires_grad

    def test_ops_record_no_graph(self):
        w = Tensor(np.ones((3, 3)), requires_grad=True)
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        with inference_mode():
            out = (w @ x).relu().sum()
        assert not out.requires_grad
        assert out._backward is None
        assert out._parents == ()

    def test_flag_restored_on_exception(self):
        assert is_grad_enabled()
        with pytest.raises(RuntimeError):
            with inference_mode():
                assert not is_grad_enabled()
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_no_grad_equivalence(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        with no_grad():
            a = (x * 2.0).sum()
        with inference_mode():
            b = (x * 2.0).sum()
        assert a.item() == b.item()
        assert a._parents == b._parents == ()

    def test_nested_restores_outer_state(self):
        with inference_mode():
            with inference_mode():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestDtypeScoping:
    def test_scalar_operand_adopts_tensor_dtype(self):
        x = Tensor(np.ones(3), dtype="float32")
        assert (x * 2).dtype == np.float32
        assert (2.0 + x).dtype == np.float32
        assert (x / 3).dtype == np.float32

    def test_float32_chain_stays_float32(self):
        w = Tensor(np.ones((3, 3)), dtype="float32")
        with inference_mode():
            out = (Tensor(np.ones((4, 3)), dtype="float32") @ w.T).relu().sigmoid()
        assert out.dtype == np.float32


class TestDetach:
    def test_detach_shares_data_and_cuts_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).relu()
        d = y.detach()
        assert d.data is y.data
        assert not d.requires_grad
        assert d._parents == ()
        assert d._backward is None

    def test_from_data_keeps_dtype(self):
        raw = np.ones(3, dtype=np.float32)
        t = Tensor._from_data(raw)
        assert t.data is raw
        assert t.dtype == np.float32

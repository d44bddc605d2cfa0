"""Op-level profiler: exact dispatch counting, restoration, coverage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import registry as backend_registry
from repro.obs import FUSED_OPS, profile
from repro.tensor import Tensor, inference_mode, ops


class TestDispatchCounting:
    def test_counts_sum_to_dispatched_ops(self):
        """One forward+backward over a hand-countable graph: exactly one
        matmul, one add, one relu and one sum are dispatched (backward
        closures run raw numpy and must not be counted)."""
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        w = Tensor(np.ones((4, 2)), requires_grad=True)
        with profile() as prof:
            loss = (x @ w).relu().sum()
            loss.backward()
        assert {name: s.calls for name, s in prof.stats.items()} == {
            "matmul": 1, "relu": 1, "sum": 1,
        }
        assert prof.total_calls == 3
        assert prof.total_calls == sum(s.calls for s in prof.stats.values())

    def test_internal_dispatch_counted(self):
        # softmax routes its last-axis case to the fused row_softmax:
        # both genuinely ran, both are counted.
        a = Tensor(np.random.default_rng(0).random((4, 4)), requires_grad=True)
        with profile() as prof:
            ops.softmax(a, axis=-1)
        assert prof.stats["softmax"].calls == 1
        assert prof.stats["row_softmax"].calls == 1

    def test_bytes_and_seconds_recorded(self):
        a = Tensor(np.ones((64, 64)))
        with profile() as prof:
            b = a + a
        assert prof.stats["add"].bytes == b.data.nbytes
        assert prof.stats["add"].seconds >= 0
        assert prof.total_bytes == b.data.nbytes

    def test_model_step_counts_are_deterministic(self, mini_dataset):
        """Profiling a real forward+backward twice over the same graph
        yields identical per-op counts — the tally tracks dispatches,
        not timing noise."""
        from repro import STGNNDJD, Trainer

        trainer = Trainer(STGNNDJD.from_dataset(mini_dataset, seed=0), mini_dataset)
        t = int(mini_dataset.split_indices()[0][0])

        def profiled_step():
            with profile() as prof:
                loss = trainer._sample_loss(t)
                loss.backward(np.asarray(1.0))
            trainer.optimizer.zero_grad()
            return {name: s.calls for name, s in prof.stats.items()}

        first, second = profiled_step(), profiled_step()
        assert first == second
        assert sum(first.values()) > 0


    def test_inference_forward_dispatches_every_stage(self, tiny_dataset):
        """A no-grad forward runs the same ops as a recorded one, so the
        profiler sees every stage: one attention score and softmax per
        PCG head (3 layers x 4 heads) and one gated blend per flow
        direction."""
        from repro import STGNNDJD

        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        model.eval()
        sample = tiny_dataset.sample(tiny_dataset.min_history)
        with inference_mode(), profile() as prof:
            model(sample)
        calls = {name: s.calls for name, s in prof.stats.items()}
        assert calls.get("pairwise_scores") == 12
        assert calls.get("row_softmax") == 12
        assert calls.get("gated_fusion") == 2


class TestFusedCoverage:
    def test_coverage_ratio(self):
        x = Tensor(np.ones((3, 4)))
        w = Tensor(np.ones((4, 2)))
        with profile() as prof:
            ops.linear(x, w)     # fused
            _ = x + x            # not fused
        assert prof.fused_coverage() == pytest.approx(0.5)
        assert "linear" in FUSED_OPS

    def test_empty_profile_coverage_zero(self):
        with profile() as prof:
            pass
        assert prof.fused_coverage() == 0.0
        assert prof.stats == {}


class TestInstallation:
    def test_wrappers_installed_and_removed(self):
        original = backend_registry.get_op("matmul")
        with profile():
            wrapped = backend_registry.get_op("matmul")
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
            assert ops.matmul is wrapped
        assert backend_registry.get_op("matmul") is original
        assert ops.matmul is original

    def test_from_import_bindings_rebound(self):
        # flow_convolution holds `gated_fusion` by from-import; the
        # profiler must intercept (and then restore) that binding too.
        from repro.graphs import flow_convolution

        original = flow_convolution.gated_fusion
        with profile():
            assert flow_convolution.gated_fusion is not original
            assert flow_convolution.gated_fusion.__wrapped__ is original
        assert flow_convolution.gated_fusion is original

    def test_nesting_rejected(self):
        with profile():
            with pytest.raises(RuntimeError, match="nest"):
                with profile():
                    pass
        # the guard resets: profiling works again afterwards
        with profile() as prof:
            Tensor(np.ones(2)) + 1
        assert prof.stats["add"].calls == 1

    def test_restores_on_exception(self):
        original = ops.add
        with pytest.raises(RuntimeError):
            with profile():
                raise RuntimeError("boom")
        assert ops.add is original

    def test_table_renders(self):
        with profile() as prof:
            Tensor(np.ones(4)).sum()
        table = prof.table()
        assert "sum" in table and "total" in table

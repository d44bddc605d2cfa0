"""Golden regression: the STGNN-DJD forward pass is pinned bit-for-bit.

``stgnn_forward_goldens.npz`` holds the float64 forward outputs for a
fixed dataset seed, model seed and config (see ``generate_goldens.py``).
Any numerical drift — op rewrites, fusions, accumulation-order changes —
must either be bitwise-neutral or come with a deliberate golden
regeneration in the same commit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import inference_mode
from tests.golden.generate_goldens import (
    GOLDEN_PATH,
    T_OFFSETS,
    build,
    forward_outputs,
)


@pytest.fixture(scope="module")
def goldens():
    assert GOLDEN_PATH.exists(), (
        "golden file missing - run PYTHONPATH=src python "
        "tests/golden/generate_goldens.py"
    )
    with np.load(GOLDEN_PATH) as bundle:
        return {name: bundle[name].copy() for name in bundle.files}


@pytest.fixture(scope="module")
def built():
    return build()


class TestFloat64:
    def test_forward_matches_goldens_bitwise(self, goldens, built):
        dataset, model = built
        outputs = forward_outputs(dataset, model)
        assert outputs.keys() == goldens.keys()
        for name, golden in goldens.items():
            assert outputs[name].dtype == np.float64
            np.testing.assert_array_equal(
                outputs[name], golden, err_msg=name, strict=True
            )

    def test_goldens_are_finite_and_shaped(self, goldens):
        for name, golden in goldens.items():
            assert golden.shape == (8,), name  # one row per station
            assert np.isfinite(golden).all(), name


class TestFloat32:
    def test_float32_forward_tracks_goldens_within_tolerance(self, goldens):
        # Fresh build: Module.to casts in place, and the float64 tests
        # must keep seeing the original double-precision weights.
        dataset, model = build()
        model32 = model.to(np.float32)
        with inference_mode(dtype="float32"):
            for offset in T_OFFSETS:
                t = dataset.min_history + offset
                demand, supply = model32(dataset.sample(t))
                assert demand.data.dtype == np.float32
                scale = max(
                    1.0, float(np.abs(goldens[f"demand/{offset}"]).max())
                )
                np.testing.assert_allclose(
                    demand.data, goldens[f"demand/{offset}"],
                    rtol=1e-4, atol=1e-4 * scale,
                    err_msg=f"demand/{offset}",
                )
                np.testing.assert_allclose(
                    supply.data, goldens[f"supply/{offset}"],
                    rtol=1e-4, atol=1e-4 * scale,
                    err_msg=f"supply/{offset}",
                )

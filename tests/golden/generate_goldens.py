"""Regenerate the checked-in golden forward outputs.

Run from the repo root when an *intentional* numerical change lands::

    PYTHONPATH=src python tests/golden/generate_goldens.py

The goldens pin the float64 forward pass of STGNN-DJD for a fixed
dataset seed, model seed and config. ``test_golden_forward.py`` compares
float64 runs bitwise and float32 runs within tolerance, so any silent
numerical drift — an op rewrite, a fusion, an accumulation-order change
— fails loudly instead of shifting published results.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import SyntheticCityConfig, generate_city
from repro.core.model import STGNNDJD
from repro.tensor import inference_mode

GOLDEN_PATH = Path(__file__).parent / "stgnn_forward_goldens.npz"

DATASET_SEED = 42
MODEL_SEED = 3
MODEL_KWARGS = dict(fcg_layers=1, pcg_layers=1, num_heads=2, dropout=0.0)
#: Prediction times pinned by the goldens (offsets past min_history).
T_OFFSETS = (0, 5, 17)


def build():
    dataset = generate_city(
        SyntheticCityConfig.tiny(days=10, num_stations=8), seed=DATASET_SEED
    )
    model = STGNNDJD.from_dataset(dataset, seed=MODEL_SEED, **MODEL_KWARGS)
    model.eval()
    return dataset, model


def forward_outputs(dataset, model) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    with inference_mode():
        for offset in T_OFFSETS:
            t = dataset.min_history + offset
            demand, supply = model(dataset.sample(t))
            arrays[f"demand/{offset}"] = np.array(demand.data)
            arrays[f"supply/{offset}"] = np.array(supply.data)
    return arrays


def main() -> None:
    dataset, model = build()
    arrays = forward_outputs(dataset, model)
    for name, value in arrays.items():
        assert value.dtype == np.float64, name
    np.savez(GOLDEN_PATH, **arrays)
    print(f"wrote {GOLDEN_PATH} ({len(arrays)} arrays)")


if __name__ == "__main__":
    main()

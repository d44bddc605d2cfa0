"""Assertions over sparse flow windows shared by the parity tests."""

from __future__ import annotations

import numpy as np

WINDOWS = ("short_inflow", "short_outflow", "long_inflow", "long_outflow")


def assert_windows_equal(a, b) -> None:
    """Two :class:`FlowWindow`\\ s hold identical canonical COO arrays."""
    assert a.shape == b.shape
    for field in ("channel", "index", "count"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and np.array_equal(x, y), field


def assert_sample_windows_equal(a, b) -> None:
    """Every window of two :class:`FlowSample`\\ s is equal entry for entry."""
    for name in WINDOWS:
        assert_windows_equal(getattr(a, name), getattr(b, name))

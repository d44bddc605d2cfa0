"""Shared utilities: lightweight logging."""

from repro.utils.logging import get_logger, set_global_level

__all__ = ["get_logger", "set_global_level"]

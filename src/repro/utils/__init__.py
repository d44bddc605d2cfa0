"""Shared utilities: seeding and lightweight logging."""

from repro.utils.seeding import seeded_rng, spawn_rngs
from repro.utils.logging import get_logger, set_global_level

__all__ = ["seeded_rng", "spawn_rngs", "get_logger", "set_global_level"]

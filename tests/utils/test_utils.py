"""Utilities: seeding, logging."""

import logging

import numpy as np
import pytest

from repro.utils import get_logger, seeded_rng, set_global_level, spawn_rngs


class TestSeeding:
    def test_same_seed_same_stream(self):
        a = seeded_rng(5).random(10)
        b = seeded_rng(5).random(10)
        np.testing.assert_allclose(a, b)

    def test_spawned_rngs_independent(self):
        children = spawn_rngs(seeded_rng(1), 3)
        draws = [c.random(5) for c in children]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_spawn_deterministic(self):
        a = [c.random(3) for c in spawn_rngs(seeded_rng(2), 2)]
        b = [c.random(3) for c in spawn_rngs(seeded_rng(2), 2)]
        np.testing.assert_allclose(a[0], b[0])
        np.testing.assert_allclose(a[1], b[1])

    def test_spawn_rejects_zero(self):
        with pytest.raises(ValueError):
            spawn_rngs(seeded_rng(0), 0)


class TestLogger:
    def test_namespaced(self):
        logger = get_logger("unit")
        assert logger.name == "repro.unit"

    def test_handler_attached_once(self):
        l1 = get_logger("once")
        l2 = get_logger("once")
        assert l1 is l2
        assert len(l1.handlers) == 1

    def test_level_configurable(self):
        logger = get_logger("lvl", level=logging.DEBUG)
        assert logger.level == logging.DEBUG

    def test_repeat_calls_do_not_clobber_level(self):
        logger = get_logger("sticky")
        assert logger.level == logging.INFO
        # The host application tunes the level...
        logger.setLevel(logging.WARNING)
        # ...and a later import-time get_logger must leave it alone,
        # even when passing an explicit level.
        assert get_logger("sticky").level == logging.WARNING
        assert get_logger("sticky", level=logging.DEBUG).level == logging.WARNING

    def test_set_global_level(self):
        a = get_logger("global-a")
        b = get_logger("global-b")
        set_global_level(logging.ERROR)
        try:
            assert a.level == logging.ERROR
            assert b.level == logging.ERROR
            assert logging.getLogger("repro").level == logging.ERROR
        finally:
            set_global_level(logging.INFO)

    def test_set_global_level_skips_foreign_loggers(self):
        foreign = logging.getLogger("reproducibility.other")
        foreign.setLevel(logging.CRITICAL)
        set_global_level(logging.DEBUG)
        try:
            assert foreign.level == logging.CRITICAL
        finally:
            set_global_level(logging.INFO)

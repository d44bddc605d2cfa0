"""Utilities: logging."""

import logging

from repro.utils import get_logger, set_global_level


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

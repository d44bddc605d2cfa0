"""``python -m repro.serve`` flag validation: clear errors, no tracebacks.

Bad flag combinations must die at parse time via ``parser.error`` —
SystemExit(2) with the offending flag named on stderr — instead of
surfacing minutes later as a config ``__post_init__`` traceback.
``build_service`` builds the one prediction service from the same flags.
"""

import pytest

from repro.serve.__main__ import build_service, main
from repro.serve.service import PredictionService


def expect_flag_error(capsys, argv: list[str], fragment: str) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2  # argparse's usage-error exit code
    stderr = capsys.readouterr().err
    assert fragment in stderr
    assert "Traceback" not in stderr


class TestServiceFlagValidation:
    def test_zero_max_batch(self, capsys):
        expect_flag_error(capsys, ["--max-batch", "0"],
                          "--max-batch must be >= 1")

    def test_zero_queue_depth(self, capsys):
        expect_flag_error(capsys, ["--queue-depth", "0"],
                          "--queue-depth must be >= 1")

    def test_zero_reload_poll(self, capsys):
        expect_flag_error(capsys, ["--reload-poll", "0"],
                          "--reload-poll must be > 0")

    def test_trace_sample_out_of_range(self, capsys):
        expect_flag_error(capsys, ["--trace-sample", "1.5"],
                          "--trace-sample must be in 0..1")

    def test_nonpositive_slo(self, capsys):
        expect_flag_error(capsys, ["--slo-p99", "0"],
                          "--slo-p99 must be > 0")


class TestCrossFlagValidation:
    def test_quality_window_requires_quality(self, capsys):
        expect_flag_error(capsys, ["--quality-window", "64"],
                          "--quality-window requires --quality")

    def test_quality_window_must_be_positive(self, capsys):
        expect_flag_error(capsys, ["--quality", "--quality-window", "0"],
                          "--quality-window must be >= 1")

    def test_trace_requires_events_sink(self, capsys):
        expect_flag_error(capsys, ["--trace"], "--trace requires --events")


class TestBuildService:
    def _args(self, *extra):
        import argparse

        from repro.serve.__main__ import _validate_args

        namespace = argparse.Namespace(
            host="127.0.0.1", port=0, checkpoint=None, city="tiny",
            seed=13, max_batch=64,
            queue_depth=256, reload_poll=2.0, events=None,
            events_max_mb=64.0, trace=False, trace_sample=1.0,
            quality=False, quality_window=None, slo_p99=0.25,
            verbose=False,
        )
        for key, value in zip(extra[::2], extra[1::2]):
            setattr(namespace, key, value)
        _validate_args(argparse.ArgumentParser(), namespace)
        return namespace

    def test_builds_one_prediction_service(self):
        service = build_service(self._args())
        assert isinstance(service, PredictionService)
        assert service.store.config.num_stations == 8  # the tiny city

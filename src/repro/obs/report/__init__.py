"""End-of-run reports: the ``RunReport`` artifact and its CLI renderer.

A :class:`RunReport` is the durable summary of one training run —
per-epoch records, the final metrics snapshot, and whatever extra
payload the caller attaches (an op profile, pool statistics). The run
recorder persists it as ``<run_id>.report.json`` next to the JSONL
event stream, in the same directory checkpoints go.

Render one from the command line::

    PYTHONPATH=src python -m repro.obs.report runs/           # newest report
    PYTHONPATH=src python -m repro.obs.report runs/run-1.report.json
    PYTHONPATH=src python -m repro.obs.report runs/run-1.events.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass(slots=True)
class EpochRecord:
    """One row of the training table (losses in normalised space)."""

    epoch: int
    train_loss: float
    val_loss: float
    grad_norm: float | None = None
    samples_per_sec: float | None = None
    learning_rate: float | None = None
    seconds: float | None = None


@dataclass(slots=True)
class RunReport:
    """Summary of one run: config, per-epoch records, metrics, extras."""

    run_id: str
    created: float = field(default_factory=time.time)
    config: dict = field(default_factory=dict)
    epochs: list[EpochRecord] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def best_epoch(self) -> int:
        """Index of the lowest validation loss (-1 when no epochs ran)."""
        if not self.epochs:
            return -1
        return min(range(len(self.epochs)), key=lambda i: self.epochs[i].val_loss)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["schema"] = 1
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        data = dict(data)
        data.pop("schema", None)
        data["epochs"] = [EpochRecord(**row) for row in data.get("epochs", [])]
        return cls(**data)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n",
                        encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt(value: float | None, spec: str = ".5f") -> str:
    return "-" if value is None else format(value, spec)


def render_report(report: RunReport) -> str:
    """Human-readable summary: header, epoch table, metric highlights."""
    lines = [
        f"run      {report.run_id}",
        f"created  {time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(report.created))}",
    ]
    if report.config:
        interesting = {k: v for k, v in report.config.items() if v is not None}
        lines.append("config   " + ", ".join(f"{k}={v}" for k, v in interesting.items()))

    if report.epochs:
        best = report.best_epoch
        lines.append("")
        lines.append(f"{'epoch':>5} {'train':>10} {'val':>10} {'grad norm':>10} "
                     f"{'samples/s':>10} {'lr':>9} {'seconds':>8}")
        for row in report.epochs:
            marker = " *" if row.epoch == best else ""
            lines.append(
                f"{row.epoch:>5} {row.train_loss:>10.5f} {row.val_loss:>10.5f} "
                f"{_fmt(row.grad_norm, '.4f'):>10} "
                f"{_fmt(row.samples_per_sec, '.1f'):>10} "
                f"{_fmt(row.learning_rate, '.4g'):>9} "
                f"{_fmt(row.seconds, '.2f'):>8}{marker}"
            )
        lines.append(f"best epoch: {best} "
                     f"(val {report.epochs[best].val_loss:.5f})")

    if report.metrics:
        lines.append("")
        lines.append("metrics:")
        for name, data in sorted(report.metrics.items()):
            if data["kind"] == "histogram":
                mean = data["sum"] / data["count"] if data["count"] else 0.0
                lines.append(f"  {name:<40} count={data['count']} "
                             f"mean={mean:.6g} max={data['max']}")
            else:
                lines.append(f"  {name:<40} {data['value']:.6g}")

    ops = report.extra.get("op_profile")
    if ops:
        lines.append("")
        lines.append(f"op profile: {ops['total_calls']} dispatches, "
                     f"{ops['total_seconds']:.4f}s, "
                     f"fused coverage {ops['fused_coverage'] * 100:.1f}%")

    return "\n".join(lines)


def summarize_events(events: list[dict]) -> str:
    """Compact summary of a raw event stream (no report file needed)."""
    kinds: dict[str, int] = {}
    for event in events:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    lines = [f"{len(events)} events: "
             + ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))]
    epoch_events = [e for e in events if e["kind"] == "epoch"]
    if epoch_events:
        lines.append(f"{'epoch':>5} {'train':>10} {'val':>10}")
        for event in epoch_events:
            data = event["data"]
            lines.append(f"{data.get('epoch', '?'):>5} "
                         f"{data.get('train_loss', float('nan')):>10.5f} "
                         f"{data.get('val_loss', float('nan')):>10.5f}")
    drift_events = [e for e in events if e["name"] == "quality.drift"]
    for event in drift_events:
        lines.append(
            f"drift: ratio {event['data'].get('ratio', float('nan')):.3f} "
            f"crossed threshold "
            f"{event['data'].get('threshold', float('nan')):.3f}"
        )
    return "\n".join(lines)


def _resolve_target(path: Path) -> Path:
    """Directories resolve to their newest ``*.report.json``."""
    if path.is_dir():
        reports = sorted(path.glob("*.report.json"),
                         key=lambda p: p.stat().st_mtime)
        if not reports:
            raise FileNotFoundError(f"no *.report.json files under {path}")
        return reports[-1]
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a training run report or event stream.",
    )
    parser.add_argument("path", type=Path,
                        help="a *.report.json, *.events.jsonl, or a run directory")
    parser.add_argument("--json", action="store_true",
                        help="dump the raw report JSON instead of the table")
    args = parser.parse_args(argv)

    try:
        target = _resolve_target(args.path)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 1

    if target.suffix == ".jsonl":
        from repro.obs.events import read_events

        print(summarize_events(read_events(target)))
        return 0

    report = RunReport.load(target)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(render_report(report))
    return 0


"""Deterministic fault injection: plans, rules, and call-site seams.

Production code marks its failure-prone seams with
:func:`fault_point("site") <fault_point>` (hang/raise injection)
and :func:`fault_transform("site", value) <fault_transform>` (value
corruption). Both are inert until a :class:`FaultPlan` is armed: the
disarmed cost is one module-global read and a ``None`` check per site —
the same gating discipline as the ``repro.obs`` metric handles — so the
seams stay compiled into the hot paths of training and serving at zero
measurable overhead.

A plan is a list of :class:`FaultRule`\\ s scheduled *deterministically*:

* **by call count** — ``plan.on("trainer.batch", at=3)`` fires on
  exactly the third hit of that site;
* **periodically** — ``every=5`` fires on every fifth hit;
* **probabilistically but seeded** — ``probability=0.1`` draws from a
  per-rule ``random.Random`` derived from ``FaultPlan(seed=...)``, so
  the same plan replayed over the same workload fires at the same hits.

Every firing is appended to :attr:`FaultPlan.fired`, which chaos tests
assert against to prove a failure scenario is reproducible from its
seed.

Actions
-------
``raise``
    Raise :class:`InjectedFault` (or a caller-supplied exception).
``hang``
    Sleep ``hang_seconds`` — models a wedged dispatcher or a stalled step.
``call``
    Invoke a callback. At a :func:`fault_point` it receives the site
    name; at a :func:`fault_transform` it receives the value and its
    return value replaces it (poisoned results, clock skew).

Example::

    plan = FaultPlan(seed=0).on("trainer.batch", at=2)
    with injected(plan):
        trainer.fit()          # raises InjectedFault before the 2nd step
    assert plan.fired          # and the injection actually happened
"""

from __future__ import annotations

import contextlib
import fnmatch
import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Iterator

__all__ = [
    "FaultPlan",
    "FaultRule",
    "FiredFault",
    "InjectedFault",
    "active_plan",
    "arm",
    "disarm",
    "fault_point",
    "fault_transform",
    "injected",
]

_ACTIONS = ("raise", "hang", "call")


class InjectedFault(RuntimeError):
    """The default exception raised by a ``raise``-action fault rule."""

    def __init__(self, site: str, call_index: int) -> None:
        super().__init__(f"injected fault at {site!r} (call #{call_index})")
        self.site = site
        self.call_index = call_index


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One scheduled fault: where it matches, when it fires, what it does.

    ``site`` is an ``fnmatch`` pattern against seam names
    (``"continual.*"`` matches every continual-loop seam). Exactly one of
    ``at``/``every``/``probability`` schedules the rule; ``max_fires``
    bounds how often it can fire (default once for ``at``, unbounded
    otherwise).
    """

    site: str
    action: str = "raise"
    at: tuple[int, ...] | None = None  # 1-based hit indices of the site
    every: int | None = None
    probability: float | None = None
    max_fires: int | None = None
    exception: BaseException | type[BaseException] | None = None
    hang_seconds: float = 0.05
    callback: Callable[..., Any] | None = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}, got {self.action!r}")
        schedules = sum(
            x is not None for x in (self.at, self.every, self.probability)
        )
        if schedules > 1:
            raise ValueError("give at most one of at/every/probability")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.action == "call" and self.callback is None:
            raise ValueError("action='call' requires a callback")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be >= 0")

    def matches(self, site: str) -> bool:
        return self.site == site or fnmatch.fnmatchcase(site, self.site)


@dataclass(frozen=True, slots=True)
class FiredFault:
    """One entry of a plan's reproducibility log."""

    site: str
    call_index: int  # which hit of the site fired (1-based)
    rule_index: int  # index of the rule in FaultPlan.rules
    action: str


class FaultPlan:
    """A seeded, schedulable set of fault rules.

    Thread-safe: sites on the serving path are hit from HTTP handler
    threads and the dispatcher concurrently. Deterministic: counters are
    per-site, probability draws come from per-rule seeded generators,
    and every firing is recorded in :attr:`fired`.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rules: list[FaultRule] = []
        self.hits: dict[str, int] = {}
        self.fired: list[FiredFault] = []
        self._fire_counts: dict[int, int] = {}
        self._rngs: dict[int, Random] = {}
        self._lock = threading.Lock()

    # -- authoring ------------------------------------------------------
    def on(
        self,
        site: str,
        action: str = "raise",
        at: int | tuple[int, ...] | None = None,
        every: int | None = None,
        probability: float | None = None,
        max_fires: int | None = None,
        exception: BaseException | type[BaseException] | None = None,
        hang_seconds: float = 0.05,
        callback: Callable[..., Any] | None = None,
    ) -> "FaultPlan":
        """Append a rule; chainable. ``at=3`` fires once, on the 3rd hit."""
        if isinstance(at, int):
            at = (at,)
        if max_fires is None and at is not None:
            max_fires = len(at)
        rule = FaultRule(
            site=site,
            action=action,
            at=at,
            every=every,
            probability=probability,
            max_fires=max_fires,
            exception=exception,
            hang_seconds=hang_seconds,
            callback=callback,
        )
        index = len(self.rules)
        self.rules.append(rule)
        # Stable per-rule stream: independent of dict/hash randomization.
        self._rngs[index] = Random(self.seed * 1_000_003 + index)
        return self

    # -- runtime --------------------------------------------------------
    def _select(self, site: str) -> tuple[FaultRule, int, int] | None:
        """Record a hit of ``site``; return (rule, rule_index, call_index)
        for the first rule that fires, or ``None``."""
        with self._lock:
            count = self.hits.get(site, 0) + 1
            self.hits[site] = count
            for index, rule in enumerate(self.rules):
                if not rule.matches(site):
                    continue
                fires = self._fire_counts.get(index, 0)
                if rule.max_fires is not None and fires >= rule.max_fires:
                    continue
                if rule.at is not None:
                    due = count in rule.at
                elif rule.every is not None:
                    due = count % rule.every == 0
                elif rule.probability is not None:
                    due = self._rngs[index].random() < rule.probability
                else:
                    due = True
                if not due:
                    continue
                self._fire_counts[index] = fires + 1
                self.fired.append(
                    FiredFault(site, count, index, rule.action)
                )
                return rule, index, count
        return None

    def _execute(self, rule: FaultRule, site: str, call_index: int) -> None:
        if rule.action == "raise":
            exc = rule.exception
            if exc is None:
                raise InjectedFault(site, call_index)
            raise exc() if isinstance(exc, type) else exc
        if rule.action == "hang":
            time.sleep(rule.hang_seconds)
            return
        rule.callback(site)

    def hit(self, site: str) -> None:
        """Register one hit of ``site``; fire the first due rule, if any."""
        selected = self._select(site)
        if selected is not None:
            rule, _, call_index = selected
            self._execute(rule, site, call_index)

    def transform(self, site: str, value: Any) -> Any:
        """Like :meth:`hit`, but a ``call`` rule rewrites ``value``."""
        selected = self._select(site)
        if selected is None:
            return value
        rule, _, call_index = selected
        if rule.action == "call":
            return rule.callback(value)
        self._execute(rule, site, call_index)
        return value

    def reset(self) -> None:
        """Forget hits/fires (rules and seeds stay) for a fresh replay."""
        with self._lock:
            self.hits.clear()
            self.fired.clear()
            self._fire_counts.clear()
            for index in self._rngs:
                self._rngs[index] = Random(self.seed * 1_000_003 + index)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
            f"fired={len(self.fired)})"
        )


# ----------------------------------------------------------------------
# Process-global armed plan + the call-site seams
# ----------------------------------------------------------------------
_ACTIVE: FaultPlan | None = None


def arm(plan: FaultPlan) -> None:
    """Make ``plan`` the process-global armed plan."""
    global _ACTIVE
    _ACTIVE = plan


def disarm() -> None:
    """Deactivate fault injection; every seam becomes a cheap no-op again."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> FaultPlan | None:
    """The currently armed plan, or ``None``."""
    return _ACTIVE


@contextlib.contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of a ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    arm(plan)
    try:
        yield plan
    finally:
        _ACTIVE = previous


def fault_point(site: str) -> None:
    """A named seam: no-op unless an armed plan schedules a fault here."""
    plan = _ACTIVE
    if plan is not None:
        plan.hit(site)


def fault_transform(site: str, value: Any) -> Any:
    """A value seam: armed ``call`` rules may rewrite ``value`` in flight."""
    plan = _ACTIVE
    if plan is None:
        return value
    return plan.transform(site, value)

"""Deterministic fault injection for chaos-testing training and serving.

See :mod:`repro.faults.plan` for the full model. The short version::

    from repro.faults import FaultPlan, injected

    plan = FaultPlan(seed=0).on("serve.forecast", at=2)
    with injected(plan):
        ...  # the 2nd forward on the serving path raises InjectedFault

Seams currently threaded through the codebase:

==============================  =================================================
site                            where / what it models
==============================  =================================================
``trainer.epoch``               start of each training epoch
``trainer.batch``               before each optimizer step (mid-epoch interrupt)
``serve.dispatch``              the dispatcher, per micro-batch (hang ⇒ overload)
``serve.forecast``              the model forward on the request path
``serve.reload``                checkpoint hot-reload, before the load
``state.ingest``                per trip event entering the flow store
``state.clock``                 transform: skew an event's (start, end) times
``state.rollover``              slot rollover in the flow store
``quality.reconcile``           quality monitor folding a closed slot's forecasts
``continual.extract``           continual loop, before reading store history
``continual.retrain``           before the warm-started incremental retrain
``continual.evaluate``          before the candidate-vs-live shadow evaluation
``continual.promote``           before the candidate checkpoint hits disk
``continual.promote.artifact``  transform: the checkpoint path between the
                                atomic write and the service reload (bit rot)
==============================  =================================================
"""

from repro.faults.plan import (
    FaultPlan,
    FaultRule,
    FiredFault,
    InjectedFault,
    active_plan,
    arm,
    disarm,
    fault_point,
    fault_transform,
    injected,
)

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

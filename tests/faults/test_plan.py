"""FaultPlan semantics: scheduling, determinism, actions, arming."""

import threading

import pytest

from repro.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    arm,
    disarm,
    fault_point,
    fault_transform,
    injected,
)


class TestDisarmed:
    def test_fault_point_is_a_noop(self):
        assert active_plan() is None
        fault_point("any.site")  # must not raise

    def test_fault_transform_passes_value_through(self):
        value = (1.0, 2.0)
        assert fault_transform("any.site", value) is value

    def test_armed_plan_does_not_leak_out_of_context(self):
        plan = FaultPlan().on("x")
        with injected(plan):
            assert active_plan() is plan
        assert active_plan() is None
        fault_point("x")  # disarmed again: no fire

    def test_injected_restores_previous_plan(self):
        outer, inner = FaultPlan(), FaultPlan()
        arm(outer)
        try:
            with injected(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        finally:
            disarm()


class TestScheduling:
    def test_fires_on_exact_call_index(self):
        plan = FaultPlan().on("site", at=3)
        with injected(plan):
            fault_point("site")
            fault_point("site")
            with pytest.raises(InjectedFault) as excinfo:
                fault_point("site")
        assert excinfo.value.call_index == 3
        assert [f.call_index for f in plan.fired] == [3]

    def test_at_fires_once_by_default(self):
        plan = FaultPlan().on("site", at=1)
        with injected(plan):
            with pytest.raises(InjectedFault):
                fault_point("site")
            fault_point("site")  # max_fires exhausted: no second fire
        assert len(plan.fired) == 1

    def test_every_n(self):
        plan = FaultPlan().on("site", every=2, max_fires=2)
        fires = 0
        with injected(plan):
            for _ in range(8):
                try:
                    fault_point("site")
                except InjectedFault:
                    fires += 1
        assert fires == 2
        assert [f.call_index for f in plan.fired] == [2, 4]

    def test_probability_is_seed_deterministic(self):
        def run(seed):
            plan = FaultPlan(seed=seed).on("site", probability=0.3, max_fires=None)
            with injected(plan):
                for _ in range(50):
                    try:
                        fault_point("site")
                    except InjectedFault:
                        pass
            return [f.call_index for f in plan.fired]

        assert run(7) == run(7)  # same seed, same firing pattern
        assert run(7) != run(8)  # and the seed actually matters

    def test_reset_replays_identically(self):
        plan = FaultPlan(seed=1).on("site", probability=0.5, max_fires=None)

        def drive():
            with injected(plan):
                for _ in range(20):
                    try:
                        fault_point("site")
                    except InjectedFault:
                        pass
            return [f.call_index for f in plan.fired]

        first = drive()
        plan.reset()
        assert drive() == first

    def test_glob_site_matching(self):
        plan = FaultPlan().on("stage*.sample", at=1, max_fires=3)
        with injected(plan):
            with pytest.raises(InjectedFault):
                fault_point("stage0.sample")
            with pytest.raises(InjectedFault):
                fault_point("stage1.sample")
            fault_point("stage1.task")  # different site: no match
        assert {f.site for f in plan.fired} == {"stage0.sample", "stage1.sample"}

    def test_unmatched_sites_still_counted(self):
        plan = FaultPlan().on("never.fires", at=99)
        with injected(plan):
            fault_point("a")
            fault_point("a")
            fault_point("b")
        assert plan.hits == {"a": 2, "b": 1}
        assert plan.fired == []

    def test_thread_safety_of_counters(self):
        plan = FaultPlan().on("hot", at=5000)  # never reached
        with injected(plan):
            def hammer():
                for _ in range(500):
                    fault_point("hot")
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert plan.hits["hot"] == 2000


class TestActions:
    def test_custom_exception_instance(self):
        plan = FaultPlan().on("site", at=1, exception=TimeoutError("slow disk"))
        with injected(plan):
            with pytest.raises(TimeoutError, match="slow disk"):
                fault_point("site")

    def test_custom_exception_class(self):
        plan = FaultPlan().on("site", at=1, exception=ConnectionResetError)
        with injected(plan):
            with pytest.raises(ConnectionResetError):
                fault_point("site")

    def test_hang_sleeps_then_returns(self):
        plan = FaultPlan().on("site", action="hang", at=1, hang_seconds=0.01)
        with injected(plan):
            fault_point("site")  # returns after the bounded hang
        assert plan.fired[0].action == "hang"

    def test_callback_at_a_point(self):
        seen = []
        plan = FaultPlan().on("site", action="call", at=2, callback=seen.append)
        with injected(plan):
            fault_point("site")
            fault_point("site")
        assert seen == ["site"]

    def test_transform_rewrites_value(self):
        plan = FaultPlan().on(
            "clock", action="call", at=2, callback=lambda v: (v[0], v[0] - 60.0)
        )
        with injected(plan):
            assert fault_transform("clock", (10.0, 20.0)) == (10.0, 20.0)
            assert fault_transform("clock", (10.0, 20.0)) == (10.0, -50.0)

    def test_raise_rule_fires_at_a_transform_seam(self):
        plan = FaultPlan().on("clock", at=1)
        with injected(plan):
            with pytest.raises(InjectedFault):
                fault_transform("clock", (1.0, 2.0))


class TestRuleValidation:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="action"):
            FaultRule(site="s", action="explode")

    def test_rejects_multiple_schedules(self):
        with pytest.raises(ValueError, match="at most one"):
            FaultRule(site="s", at=(1,), every=2)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultPlan().on("s", probability=1.5)

    def test_call_requires_callback(self):
        with pytest.raises(ValueError, match="callback"):
            FaultPlan().on("s", action="call")

    def test_chainable(self):
        plan = FaultPlan().on("a", at=1).on("b", every=2)
        assert len(plan.rules) == 2

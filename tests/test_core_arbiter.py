"""Unit tests for the arbiter state machine and the application registry."""

import pytest

from repro.core import (
    AccessDescriptor, AccessState, ApplicationRegistry, Arbiter,
)
from repro.oracles import UnbatchedArbiter
from repro.simcore import SimulationError, Simulator


def desc(app, nprocs=10, t_alone=5.0):
    return AccessDescriptor(app=app, nprocs=nprocs, total_bytes=1e6,
                            t_alone=t_alone)


def test_first_inform_under_fcfs_is_authorized():
    arb = Arbiter(Simulator(), "fcfs")
    assert arb.on_inform(desc("a")) is True
    assert arb.is_authorized("a")
    assert arb.state_of("a") is AccessState.ACTIVE


def test_second_inform_under_fcfs_waits():
    arb = Arbiter(Simulator(), "fcfs")
    arb.on_inform(desc("a"))
    assert arb.on_inform(desc("b")) is False
    assert arb.state_of("b") is AccessState.WAITING


def test_complete_grants_next_waiter_in_order():
    sim = Simulator()
    arb = Arbiter(sim, "fcfs")
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))
    arb.on_inform(desc("c"))
    arb.on_complete("a")
    sim.run()
    assert arb.is_authorized("b")
    assert arb.state_of("c") is AccessState.WAITING
    arb.on_complete("b")
    sim.run()
    assert arb.is_authorized("c")


def test_interrupt_preempts_and_resumes_with_priority():
    sim = Simulator()
    arb = Arbiter(sim, "interrupt")
    arb.on_inform(desc("a"))
    assert arb.on_inform(desc("b")) is True    # b interrupts a
    assert arb.state_of("a") is AccessState.PREEMPTED
    assert arb.is_authorized("b")
    arb.on_complete("b")
    sim.run()
    assert arb.is_authorized("a")              # a resumes before any waiter


def test_preempted_resumes_before_waiting():
    sim = Simulator()
    arb = Arbiter(sim, "interrupt")
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))                   # b interrupts a
    # c arrives while b runs: interrupt strategy preempts b too.
    arb.on_inform(desc("c"))
    assert arb.state_of("b") is AccessState.PREEMPTED
    arb.on_complete("c")
    sim.run()
    # a was preempted first -> resumes first.
    assert arb.is_authorized("a")
    assert arb.state_of("b") is AccessState.PREEMPTED


@pytest.mark.parametrize("arbiter_cls", [Arbiter, UnbatchedArbiter])
def test_preempted_descriptors_list_stack_in_preemption_order(arbiter_cls):
    arb = arbiter_cls(Simulator(), "interrupt")
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))                   # b interrupts a
    arb.on_inform(desc("c"))                   # c interrupts b
    assert arb.state_of("a") is AccessState.PREEMPTED
    assert [d.app for d in arb.preempted_descriptors()] == ["a", "b"]


def test_reinform_while_active_is_continuation():
    arb = Arbiter(Simulator(), "fcfs")
    arb.on_inform(desc("a"))
    d2 = desc("a")
    d2.remaining_bytes = 10.0
    assert arb.on_inform(d2) is True
    assert len(arb.decision_log) == 1  # no second strategy decision
    assert arb.descriptor_of("a").remaining_bytes == 10.0


def test_authorization_event_fires_on_grant():
    sim = Simulator()
    arb = Arbiter(sim, "fcfs")
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))
    fired = []
    arb.authorization_event("b").callbacks.append(lambda ev: fired.append(True))
    arb.on_complete("a")
    sim.run()
    assert fired == [True]


def test_authorization_event_immediate_when_active():
    sim = Simulator()
    arb = Arbiter(sim, "fcfs")
    arb.on_inform(desc("a"))
    ev = arb.authorization_event("a")
    assert ev.triggered


def test_grant_latency_delays_authorization():
    sim = Simulator()
    arb = Arbiter(sim, "fcfs", grant_latency=0.5)
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))
    ev = arb.authorization_event("b")
    arb.on_complete("a")
    sim.run(until=ev)
    assert sim.now == pytest.approx(0.5)


def test_on_release_updates_remaining():
    arb = Arbiter(Simulator(), "fcfs")
    arb.on_inform(desc("a"))
    arb.on_release("a", remaining_bytes=123.0)
    assert arb.descriptor_of("a").remaining_bytes == 123.0


def test_complete_unknown_app_is_noop():
    arb = Arbiter(Simulator(), "fcfs")
    arb.on_complete("ghost")  # must not raise


def test_decision_log_records_costs():
    sim = Simulator()
    arb = Arbiter(sim, "dynamic")
    a = desc("a")
    a.access_started = 0.0
    arb.on_inform(a)
    arb.on_inform(desc("b"))
    assert len(arb.decision_log) == 2
    assert "fcfs" in arb.decision_log[1].costs
    assert "interrupt" in arb.decision_log[1].costs


def test_waiting_app_completing_is_removed_from_queue():
    sim = Simulator()
    arb = Arbiter(sim, "fcfs")
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))
    arb.on_inform(desc("c"))
    arb.on_complete("b")  # b gives up while queued
    arb.on_complete("a")
    sim.run()
    assert arb.is_authorized("c")


# -- registry -----------------------------------------------------------------

def test_registry_register_and_peers():
    reg = ApplicationRegistry()
    reg.register("a", 128, "a", now=0.0)
    reg.register("b", 64, "b", now=1.0)
    assert len(reg) == 2
    assert [r.name for r in reg.peers_of("a")] == ["b"]


def test_registry_unregister():
    reg = ApplicationRegistry()
    reg.register("a", 128, "a", now=0.0)
    reg.unregister("a", now=5.0)
    assert len(reg) == 0
    assert reg.lookup("a").finished_at == 5.0


def test_registry_double_register_rejected():
    reg = ApplicationRegistry()
    reg.register("a", 128, "a", now=0.0)
    with pytest.raises(SimulationError):
        reg.register("a", 128, "a", now=1.0)


def test_registry_rereregister_after_finish_ok():
    reg = ApplicationRegistry()
    reg.register("a", 128, "a", now=0.0)
    reg.unregister("a", now=1.0)
    reg.register("a", 256, "a", now=2.0)
    assert reg.lookup("a").nprocs == 256


def test_registry_unregister_unknown_rejected():
    reg = ApplicationRegistry()
    with pytest.raises(SimulationError):
        reg.unregister("ghost", now=0.0)
    with pytest.raises(SimulationError):
        reg.lookup("ghost")


def test_delay_action_grants_after_hold():
    from repro.core import Decision, Action, Strategy

    class AlwaysDelay(Strategy):
        name = "always-delay"

        def decide(self, now, active, waiting, incoming):
            if active:
                return Decision(Action.DELAY, delay=5.0)
            return Decision(Action.GO)

    sim = Simulator()
    arb = Arbiter(sim, AlwaysDelay())
    arb.on_inform(desc("a"))
    assert arb.on_inform(desc("b")) is False
    ev = arb.authorization_event("b")
    sim.run(until=ev)
    assert sim.now == pytest.approx(5.0)
    assert arb.is_authorized("b")
    # a was never preempted: both now share.
    assert arb.is_authorized("a")


def test_delay_action_early_grant_wins():
    from repro.core import Decision, Action, Strategy

    class AlwaysDelay(Strategy):
        name = "always-delay"

        def decide(self, now, active, waiting, incoming):
            if active:
                return Decision(Action.DELAY, delay=100.0)
            return Decision(Action.GO)

    sim = Simulator()
    arb = Arbiter(sim, AlwaysDelay())
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))
    ev = arb.authorization_event("b")

    def finish_a():
        yield sim.timeout(2.0)
        arb.on_complete("a")

    sim.process(finish_a())
    sim.run(until=ev)
    assert sim.now == pytest.approx(2.0)  # granted at a's completion
    sim.run()  # the stale hold timer must not break anything
    assert arb.is_authorized("b")

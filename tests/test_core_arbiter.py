"""Unit tests for the arbiter state machine."""

import pytest

from repro.core import AccessDescriptor, AccessState, Arbiter
from repro.oracles import UnbatchedArbiter
from repro.simcore import Simulator


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


# -- the access book as a mirror ---------------------------------------------

def _mirror_run(mirrored):
    """One scripted access history, observed through an access book.

    ``mirrored=False`` drives an :class:`Arbiter` with the grant latency
    and observes its own book.  ``mirrored=True`` drives an
    ``Arbiter(grant_latency=0)`` and feeds its transition stream into a
    separate :class:`AccessBook` with the latency, as the process-shard
    router does with a worker's.  Returns the per-probe snapshots of every
    app's state and in-flight grant, and the fire time of every waiter.
    """
    from repro.core import Action, Decision, Strategy
    from repro.core.arbiter import AccessBook

    latency = 0.25
    verdicts = {
        "a": Decision(Action.GO),
        "b": Decision(Action.WAIT),
        "c": Decision(Action.INTERRUPT),      # preempts a
        "d": Decision(Action.DELAY, delay=0.3),
        "e": Decision(Action.GO),
        "f": Decision(Action.WAIT),
    }

    class Scripted(Strategy):
        def decide(self, now, active, waiting, incoming):
            return verdicts[incoming.app]

    script = [
        (0.0, [("inform", "a"), ("inform", "b")]),
        (0.1, [("inform", "c")]),
        (0.2, [("inform", "d")]),
        (0.3, [("on_complete", "c")]),   # a re-granted, d still held
        (0.6, [("on_complete", "a")]),   # d's hold expired at 0.5
        (0.7, [("on_complete", "d")]),   # b granted; in flight to 0.95
        (0.8, [("withdraw", "b"),        # drops b's in-flight grant
               ("inform", "e"), ("inform", "b")]),
        (0.85, [("on_complete", "e")]),  # b re-granted; in flight to 1.1
        # f waits and is granted before its session looks: the waiter
        # registered at WAITING still delivers the latency.
        (1.5, [("inform", "f"), ("on_complete", "b")]),
        (1.9, [("on_complete", "f")]),
    ]
    sim = Simulator()
    if mirrored:
        arb = Arbiter(sim, Scripted(), grant_latency=0.0)
        book = AccessBook(sim, grant_latency=latency)
        arb.transition_observer = book.set
    else:
        arb = book = Arbiter(sim, Scripted(), grant_latency=latency)
    apps = sorted(verdicts)
    snapshots, fired, watched = [], [], {}

    def watch_waiters():
        # A session waits until its app is authorized and the grant landed.
        for app in apps:
            if book.grant_in_flight(app) or book.state_of(app) in (
                    AccessState.WAITING, AccessState.PREEMPTED):
                ev = book.authorization_event(app)
                if watched.get(app) is not ev:
                    watched[app] = ev
                    ev.callbacks.append(
                        lambda _ev, app=app: fired.append((app, sim.now)))

    def step(ops):
        for op, app in ops:
            if op == "inform":
                arb.on_inform(desc(app))
            else:
                getattr(arb, op)(app)
        watch_waiters()

    def probe():
        snapshots.append((sim.now, [(app, book.state_of(app),
                                     book.grant_in_flight(app))
                                    for app in apps]))

    for t, ops in script:
        sim.call_at(t, lambda ops=ops: step(ops))
    for k in range(40):
        sim.call_at(0.05 * k + 0.01, probe)
    sim.run()
    return snapshots, fired


def test_mirror_book_replays_a_zero_latency_stream_exactly():
    """GO, WAIT, DELAY, INTERRUPT, complete/withdraw and a re-grant while
    a grant is in flight: the mirror matches the in-process arbiter."""
    snapshots, fired = _mirror_run(mirrored=True)
    assert (snapshots, fired) == _mirror_run(mirrored=False)
    in_flight = {(round(t, 2), app) for t, row in snapshots
                 for app, _, flying in row if flying}
    assert (0.36, "a") in in_flight           # preempted a, re-granted
    assert (0.76, "b") in in_flight           # the first grant to b
    assert (0.81, "b") not in in_flight       # gone with the withdraw
    assert (0.96, "b") in in_flight           # the re-grant outlives it
    assert (1.51, "f") in in_flight
    assert sorted(fired) == [("a", 0.55), ("b", 0.95), ("b", 1.1),
                             ("d", 0.75), ("f", 1.75)]

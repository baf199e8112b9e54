"""Pricing the preempted queue in the dynamic strategy's cost model.

``DynamicStrategy(price_preempted=True)`` charges the preempted stack
into every option: under FCFS the stack resumes after the actives drain
(ahead of FIFO waiters), under INTERRUPT it resumes right after the
incoming while the victims queue behind it.  The flag is off by default
and the contract is exact: decisions are bit-identical to the historical
model whenever the flag is off *or* the preempted queue is empty.
"""

import pytest

from repro.core.arbiter import AccessState, Arbiter
from repro.core.metrics import AccessDescriptor
from repro.core.strategies import Action, DynamicStrategy
from repro.oracles import UnbatchedArbiter
from repro.simcore import Simulator

#: The production arbiter and the per-inform oracle.  The ids keep the
#: case names from when the oracle was spelled ``Arbiter(batched=False)``.
ARBITERS = [pytest.param(Arbiter, id="True"),
            pytest.param(UnbatchedArbiter, id="False")]


def desc(app, nprocs, t_alone, total=1e6):
    return AccessDescriptor(app=app, nprocs=nprocs, total_bytes=total,
                            t_alone=t_alone)


def _log(arb):
    return [(r.app, r.action) for r in arb.decision_log]


# ---------------------------------------------------------------------------
# Direct decide(): the cost model itself
# ---------------------------------------------------------------------------

def test_pricing_noop_when_queue_empty():
    state = dict(active=[desc("a", 64, 50.0)], waiting=[],
                 incoming=desc("s", 4, 1.0))
    base = DynamicStrategy().decide(0.0, state["active"], state["waiting"],
                                    state["incoming"], preempted=())
    priced = DynamicStrategy(price_preempted=True).decide(
        0.0, state["active"], state["waiting"], state["incoming"],
        preempted=())
    assert priced.action is base.action
    assert priced.costs == base.costs


def test_unpriced_ignores_a_populated_queue():
    """Without the flag, a non-empty view must not move any number."""
    active, incoming = [desc("a", 64, 50.0)], desc("s", 4, 1.0)
    stack = [desc("p", 2, 100.0)]
    base = DynamicStrategy().decide(0.0, active, [], incoming, preempted=())
    shown = DynamicStrategy().decide(0.0, active, [], incoming,
                                     preempted=stack)
    assert shown.action is base.action
    assert shown.costs == base.costs


def test_priced_stack_flips_interrupt_to_wait():
    """A deep stack makes INTERRUPT pay: the victims eat the whole
    stack's remainder before resuming (CPU-seconds-wasted explodes with
    the victim's core count)."""
    active, incoming = [desc("a", 64, 50.0)], desc("s", 4, 1.0)
    stack = [desc("p", 2, 100.0)]
    base = DynamicStrategy().decide(0.0, active, [], incoming,
                                    preempted=stack)
    priced = DynamicStrategy(price_preempted=True).decide(
        0.0, active, [], incoming, preempted=stack)
    assert base.action is Action.INTERRUPT
    assert priced.action is Action.WAIT
    # fcfs: a=64*50, p=2*(50+100), s=4*(50+100+1) -> 4104
    assert priced.costs["fcfs"] == pytest.approx(4104.0)
    # interrupt: a=64*(1+50+100), p=2*(1+100), s=4*1 -> 9870
    assert priced.costs["interrupt"] == pytest.approx(9870.0)


def test_priced_stack_ordering_is_queue_order():
    """Per-app resume times accumulate the stack prefix (queue order), so
    permuting the queue changes the per-app prices but not the totals —
    visible through a per-app-weighted metric."""
    active, incoming = [desc("a", 8, 10.0)], desc("s", 8, 10.0)
    p1, p2 = desc("p1", 1, 30.0), desc("p2", 16, 5.0)
    strategy = DynamicStrategy(price_preempted=True,
                               metric="max-slowdown")
    one = strategy.decide(0.0, active, [], incoming, preempted=[p1, p2])
    other = strategy.decide(0.0, active, [], incoming, preempted=[p2, p1])
    # p2 (16 cores, 5 s alone) behind p1's 30 s is slowed 9x; ahead of it
    # only 3x — queue order must reach the cost model.
    assert one.costs["fcfs"] != other.costs["fcfs"]


def test_priced_interference_and_delay_options_cover_the_stack():
    strategy = DynamicStrategy(price_preempted=True,
                               consider_interference=True,
                               consider_delay=True, capacity=1e6)
    active, incoming = [desc("a", 64, 50.0)], desc("s", 4, 1.0)
    stack = [desc("p", 2, 100.0)]
    priced = strategy.decide(0.0, active, [], incoming, preempted=stack)
    unpriced = DynamicStrategy(consider_interference=True,
                               consider_delay=True, capacity=1e6).decide(
        0.0, active, [], incoming, preempted=stack)
    # The stack is queued under every option, so each option's cost rises
    # by the same kind of term — and never below its unpriced value.
    for key, value in unpriced.costs.items():
        assert priced.costs[key] > value, key


# ---------------------------------------------------------------------------
# Through the arbiter: decision logs
# ---------------------------------------------------------------------------

def _drive_stacked(strategy, arbiter_cls):
    """big P runs; big A interrupts it; small S arrives over the stack."""
    arb = arbiter_cls(Simulator(), strategy)
    arb.on_inform(desc("p", 2, 100.0))   # GO
    arb.on_inform(desc("a", 64, 50.0))   # INTERRUPT (p -> preempted)
    arb.on_inform(desc("s", 4, 1.0))     # the priced/unpriced divergence
    return arb


@pytest.mark.parametrize("arbiter_cls", ARBITERS)
def test_decision_log_diverges_only_on_stacked_decision(arbiter_cls):
    unpriced = _drive_stacked(DynamicStrategy(), arbiter_cls)
    priced = _drive_stacked(DynamicStrategy(price_preempted=True),
                            arbiter_cls)
    assert _log(unpriced)[:2] == _log(priced)[:2] == [
        ("p", Action.GO), ("a", Action.INTERRUPT)]
    assert _log(unpriced)[2] == ("s", Action.INTERRUPT)
    assert _log(priced)[2] == ("s", Action.WAIT)
    # The priced WAIT keeps the stack intact instead of deepening it.
    assert priced.state_of("s") is AccessState.WAITING
    assert unpriced.state_of("a") is AccessState.PREEMPTED


@pytest.mark.parametrize("arbiter_cls", ARBITERS)
def test_decision_log_identical_without_preemptions(arbiter_cls):
    """While the preempted queue stays empty, priced and unpriced runs
    must produce bit-identical logs — costs included."""

    def drive(strategy):
        arb = arbiter_cls(Simulator(), strategy)
        # Pairwise overlap of equals: ties resolve to FCFS, so nothing is
        # ever preempted and the stack stays empty for every decision.
        arb.on_inform(desc("app0", 8, 2.0))
        for i in range(1, 6):
            arb.on_inform(desc(f"app{i}", 8, 2.0))
            arb.on_complete(f"app{i - 1}")
        arb.on_complete("app5")
        return arb

    unpriced, priced = drive(DynamicStrategy()), \
        drive(DynamicStrategy(price_preempted=True))
    assert _log(unpriced) == _log(priced)
    assert [r.costs for r in unpriced.decision_log] == \
        [r.costs for r in priced.decision_log]
    assert Action.INTERRUPT not in {a for _, a in _log(unpriced)}

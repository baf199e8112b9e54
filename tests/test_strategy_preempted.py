"""The preempted-queue view exposed to strategy decisions.

Every strategy's ``decide`` / ``decide_batch`` takes a ``preempted``
keyword, and the arbiter always passes a read-only view of the preempted
queue in preemption order, so cost models can price deep preemption
stacks.  Built-ins ignore it, and their decisions must be bit-identical
to a wrapper that receives and discards the view.
"""

import pytest

from repro.core.arbiter import AccessState, Arbiter
from repro.core.metrics import AccessDescriptor, DescriptorSetView
from repro.core.strategies import (
    Action, Decision, FCFSStrategy, InterruptStrategy, Strategy,
)
from repro.oracles import UnbatchedArbiter
from repro.simcore import Simulator

#: The production arbiter and the per-inform oracle.  The ids keep the
#: case names from when the oracle was spelled ``Arbiter(batched=False)``.
ARBITERS = [pytest.param(Arbiter, id="True"),
            pytest.param(UnbatchedArbiter, id="False")]


def desc(app, nprocs=8, total=1e6, t_alone=2.0):
    return AccessDescriptor(app=app, nprocs=nprocs, total_bytes=total,
                            t_alone=t_alone)


class Spy(Strategy):
    """Always interrupts; records what the preempted view showed."""

    name = "spy"

    def __init__(self):
        self.seen = []

    def decide(self, now, active, waiting, incoming, preempted=()):
        self.seen.append([d.app for d in preempted])
        if active:
            return Decision(Action.INTERRUPT)
        return Decision(Action.GO)


@pytest.mark.parametrize("arbiter_cls", ARBITERS)
def test_preempted_view_lists_stack_in_preemption_order(arbiter_cls):
    spy = Spy()
    arb = arbiter_cls(Simulator(), spy)
    arb.on_inform(desc("a"))          # GO; nothing preempted yet
    arb.on_inform(desc("b"))          # interrupts a (a still active here)
    arb.on_inform(desc("c"))          # interrupts b; sees the [a] stack
    # A decision observes the stack as of its own arrival (its effect is
    # applied after), so the third inform sees only a's preemption.
    assert spy.seen == [[], [], ["a"]]
    assert arb.state_of("a") is AccessState.PREEMPTED
    assert [d.app for d in arb.preempted_descriptors()] == ["a", "b"]


def test_batched_view_is_live_and_read_only_shaped():
    spy = Spy()
    arb = Arbiter(Simulator(), spy)
    arb.on_inform(desc("a"))
    arb.on_inform(desc("b"))
    view = arb._preempted_view
    assert isinstance(view, DescriptorSetView)
    assert len(view) == 1 and bool(view)
    # Completion of the interrupter re-grants the preempted app: the same
    # view object reflects it without re-materialization.
    arb.on_complete("b")
    assert len(view) == 0
    assert arb.state_of("a") is AccessState.ACTIVE


def _drive(strategy, arbiter_cls):
    """A workload with real preemption stacks; returns the decision log."""
    sim = Simulator()
    arb = arbiter_cls(sim, strategy)
    names = [f"app{i}" for i in range(6)]
    for i, name in enumerate(names):
        arb.on_inform(desc(name, nprocs=4 + i, t_alone=1.0 + 0.5 * i))
    arb.on_complete(names[0])
    arb.on_inform(desc("late", nprocs=2, t_alone=0.5))
    for name in names[1:]:
        arb.on_complete(name)
    return [(r.app, r.action) for r in arb.decision_log]


@pytest.mark.parametrize("builtin", [FCFSStrategy, InterruptStrategy])
@pytest.mark.parametrize("arbiter_cls", ARBITERS)
def test_builtins_unchanged_when_view_is_ignored(builtin, arbiter_cls):
    """Regression: built-ins (which ignore ``preempted``) must decide
    exactly as a wrapper that explicitly receives and discards the view."""

    class Wrapped(builtin):
        name = f"wrapped-{builtin.name}"

        def decide(self, now, active, waiting, incoming, preempted=()):
            assert preempted is not None  # the view arrives...
            return super().decide(now, active, waiting, incoming)  # ...unused

    assert (_drive(builtin(), arbiter_cls)
            == _drive(Wrapped(), arbiter_cls))

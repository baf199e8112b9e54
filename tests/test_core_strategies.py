"""Unit tests for scheduling strategies (decision logic only, no sim)."""

import pytest

from repro.core import (
    AccessDescriptor, Action, CpuSecondsWasted, DynamicStrategy, FCFSStrategy,
    InterfereStrategy, InterruptStrategy, SumInterferenceFactors,
    make_strategy,
)


def desc(app, nprocs, t_alone, total=1e9, started=None, remaining=None):
    d = AccessDescriptor(app=app, nprocs=nprocs, total_bytes=total,
                         t_alone=t_alone, access_started=started)
    if remaining is not None:
        d.remaining_bytes = remaining
    return d


def test_interfere_always_go():
    s = InterfereStrategy()
    a = desc("a", 100, 10.0, started=0.0)
    decision = s.decide(5.0, [a], [], desc("b", 100, 10.0))
    assert decision.action is Action.GO


def test_fcfs_waits_behind_active():
    s = FCFSStrategy()
    a = desc("a", 100, 10.0, started=0.0)
    assert s.decide(5.0, [a], [], desc("b", 100, 10.0)).action is Action.WAIT


def test_fcfs_waits_behind_queue():
    s = FCFSStrategy()
    waiting = desc("w", 100, 10.0)
    assert s.decide(5.0, [], [waiting], desc("b", 100, 10.0)).action is Action.WAIT


def test_fcfs_goes_when_idle():
    assert FCFSStrategy().decide(0.0, [], [], desc("b", 1, 1.0)).action is Action.GO


def test_interrupt_preempts_active():
    s = InterruptStrategy()
    a = desc("a", 100, 10.0, started=0.0)
    d = s.decide(5.0, [a], [], desc("b", 100, 10.0))
    assert d.action is Action.INTERRUPT


def test_interrupt_goes_when_idle():
    assert InterruptStrategy().decide(0.0, [], [], desc("b", 1, 1.0)).action is Action.GO


# -- the paper's §IV-D decision rule ----------------------------------------
#
# Equal sizes, B writes 1/4 of A's data (the Fig 10/11 scenario).
# Rule: interrupt iff dt < T_A(alone) - T_B(alone).

def fig11_scenario(dt, t_a=20.0, t_b=5.0, n=2048):
    """A started at 0, B informs at time dt."""
    a = desc("A", n, t_a, total=4e9, started=0.0,
             remaining=4e9 * (1 - dt / t_a) if dt < t_a else 0.0)
    b = desc("B", n, t_b, total=1e9)
    return a, b


def test_dynamic_interrupts_early_arrival():
    s = DynamicStrategy(CpuSecondsWasted())
    dt = 5.0  # < T_A - T_B = 15: interrupt wins
    a, b = fig11_scenario(dt)
    d = s.decide(dt, [a], [], b)
    assert d.action is Action.INTERRUPT
    assert d.costs["interrupt"] < d.costs["fcfs"]


def test_dynamic_serializes_late_arrival():
    s = DynamicStrategy(CpuSecondsWasted())
    dt = 18.0  # > T_A - T_B = 15: FCFS wins
    a, b = fig11_scenario(dt)
    d = s.decide(dt, [a], [], b)
    assert d.action is Action.WAIT
    assert d.costs["fcfs"] < d.costs["interrupt"]


def test_dynamic_crossover_at_ta_minus_tb():
    """The decision flips exactly where §IV-D says it should."""
    s = DynamicStrategy(CpuSecondsWasted())
    t_a, t_b = 20.0, 5.0
    crossover = t_a - t_b
    for dt, expected in [(crossover - 1.0, Action.INTERRUPT),
                         (crossover + 1.0, Action.WAIT)]:
        a, b = fig11_scenario(dt, t_a, t_b)
        assert s.decide(dt, [a], [], b).action is expected, dt


def test_dynamic_weighted_rule_small_interrupter():
    """N_A >> N_B flips toward FCFS under CPU-seconds (big app matters more)."""
    s = DynamicStrategy(CpuSecondsWasted())
    a = desc("A", 744, 20.0, total=1e9, started=0.0, remaining=0.75e9)
    b = desc("B", 24, 1.5, total=3e7)
    # Interrupt iff N_A * T_B < N_B * (T_A - dt): 744*1.5=1116 vs 24*15=360.
    assert s.decide(5.0, [a], [], b).action is Action.WAIT


def test_dynamic_small_app_rescued_by_interference_metric():
    """Under sum-of-interference-factors, the small app gets the interrupt."""
    s = DynamicStrategy(SumInterferenceFactors())
    a = desc("A", 744, 20.0, total=1e9, started=0.0, remaining=0.75e9)
    b = desc("B", 24, 1.5, total=3e7)
    # fcfs: I_B = (15 + 1.5)/1.5 = 11; interrupt: I_A = (20+1.5)/20 ~ 1.08.
    assert s.decide(5.0, [a], [], b).action is Action.INTERRUPT


def test_dynamic_goes_when_idle():
    s = DynamicStrategy()
    assert s.decide(0.0, [], [], desc("b", 1, 1.0)).action is Action.GO


def test_dynamic_interference_option():
    """With consider_interference, a negligible overlap chooses GO."""
    s = DynamicStrategy(CpuSecondsWasted(), consider_interference=True,
                        capacity=2e10)
    # The file system fits both apps' standalone drains (1e10 + 1e7 B/s),
    # so sharing slows nobody, while serializing or interrupting costs
    # someone a full t_alone.
    a = desc("A", 1000, 100.0, total=1e12, started=0.0)
    b = desc("B", 1, 0.001, total=1e4)
    d = s.decide(0.0, [a], [], b)
    assert "interfere" in d.costs
    assert d.action is Action.GO


@pytest.mark.parametrize("option", ["consider_interference",
                                    "consider_delay"])
def test_dynamic_sharing_options_need_capacity(option):
    """Pricing a sharing option without the file system's capacity is an
    error naming who supplies it, not a silent fallback estimate."""
    s = DynamicStrategy(CpuSecondsWasted(), **{option: True})
    a = desc("A", 100, 10.0, total=1e4, started=0.0)
    b = desc("B", 100, 10.0, total=1e4)
    with pytest.raises(ValueError, match="CalciomRuntime supplies it"):
        s.decide(0.0, [a], [], b)
    # FCFS/interrupt pricing alone needs no capacity.
    assert DynamicStrategy().decide(0.0, [a], [], b).action is Action.WAIT


def test_make_strategy_lookup():
    assert isinstance(make_strategy("fcfs"), FCFSStrategy)
    assert isinstance(make_strategy(InterruptStrategy), InterruptStrategy)
    inst = DynamicStrategy()
    assert make_strategy(inst) is inst
    with pytest.raises(ValueError):
        make_strategy("wat")
    with pytest.raises(TypeError):
        make_strategy(3.14)


# -- delay option (Fig 12 extension) -----------------------------------------

def test_dynamic_delay_option_evaluated():
    s = DynamicStrategy(CpuSecondsWasted(), consider_delay=True,
                        capacity=1000.0)
    a = desc("A", 100, 10.0, total=1e4, started=0.0)
    b = desc("B", 100, 10.0, total=1e4)
    d = s.decide(0.0, [a], [], b)
    assert any(k.startswith("delay@") for k in d.costs)


def test_dynamic_delay_chosen_when_partial_overlap_wins():
    """Sub-saturating equals (the Fig 12 regime): total demand only a bit
    over capacity, so a short hold beats both full serialization and a
    full-length overlap under total-I/O-time."""
    from repro.core import TotalIOTime
    s = DynamicStrategy(TotalIOTime(), consider_interference=True,
                        consider_delay=True, capacity=1000.0)
    # Each app drains at 800 alone (cap), 500 when sharing.
    a = desc("A", 100, 12.5, total=1e4, started=0.0)   # drain 800
    b = desc("B", 100, 12.5, total=1e4)
    d = s.decide(0.0, [a], [], b)
    # Whatever wins must be no worse than both pure options.
    best = min(d.costs.values())
    assert best <= d.costs["fcfs"] + 1e-9
    assert best <= d.costs["interrupt"] + 1e-9


# -- batch-aware built-ins and O(1) backlog aggregates (sharded-coord PR) ----

def test_fcfs_decide_batch_matches_per_incoming_decisions():
    s = FCFSStrategy()
    incomings = [desc(f"i{k}", 10, 1.0) for k in range(4)]
    batch = list(s.decide_batch(0.0, [], [], incomings))
    assert [d.action for d in batch] == [Action.GO] + [Action.WAIT] * 3
    busy = list(s.decide_batch(0.0, [desc("a", 10, 1.0)], [], incomings))
    assert all(d.action is Action.WAIT for d in busy)


def test_fcfs_subclass_custom_decide_survives_batching():
    """The O(1) batch shortcut must not bypass a subclass's decide()."""
    class Audited(FCFSStrategy):
        def decide(self, now, active, waiting, incoming):
            d = super().decide(now, active, waiting, incoming)
            d.costs["audited"] = 1.0
            return d

    batch = list(Audited().decide_batch(0.0, [], [],
                                        [desc("a", 1, 1.0),
                                         desc("b", 1, 1.0)]))
    assert all(d.costs.get("audited") == 1.0 for d in batch)


def test_dynamic_decomposed_costs_match_full_path_decisions():
    """Built-in (decomposable) metrics must pick the same action and
    near-identical costs as the historical whole-population evaluation
    (the :class:`repro.oracles.WholePopulationDynamic` oracle)."""
    from repro.oracles import WholePopulationDynamic

    fast = DynamicStrategy(CpuSecondsWasted())
    slow = WholePopulationDynamic(CpuSecondsWasted())
    active = [desc("A", 744, 20.0, total=1e9, started=0.0, remaining=0.7e9)]
    waiting = [desc(f"w{k}", 8 * (k + 1), 1.0 + 0.25 * k) for k in range(20)]
    for dt, nb in ((5.0, 24), (1.0, 700), (19.0, 8)):
        incoming = desc("B", nb, 1.5, total=3e7)
        d_fast = fast.decide(dt, active, waiting, incoming)
        d_slow = slow.decide(dt, active, waiting, incoming)
        assert d_fast.action is d_slow.action, (dt, nb)
        for key in d_slow.costs:
            assert d_fast.costs[key] == pytest.approx(d_slow.costs[key])


def test_dynamic_decomposition_with_max_combine_metric():
    from repro.core import MaxSlowdown
    from repro.oracles import WholePopulationDynamic

    fast = DynamicStrategy(MaxSlowdown())
    slow = WholePopulationDynamic(MaxSlowdown())
    active = [desc("A", 100, 10.0, total=1e9, started=0.0)]
    waiting = [desc("w", 50, 4.0)]
    incoming = desc("B", 10, 2.0, total=1e7)
    d_fast = fast.decide(3.0, active, waiting, incoming)
    d_slow = slow.decide(3.0, active, waiting, incoming)
    assert d_fast.action is d_slow.action
    # max-combine decomposition is exactly associative: bit-equal costs.
    assert d_fast.costs == d_slow.costs


def test_waiting_totals_cache_is_bit_identical_to_fresh_fold():
    """Appends extend the float fold; removals recompute — the cached
    aggregates must always equal a fresh FIFO-order sum bit-for-bit."""
    from repro.core import DescriptorSetView, WaitingTotals

    names = {}
    descriptors = {}
    view = DescriptorSetView(names, descriptors, track_totals=True)
    rng = __import__("numpy").random.default_rng(5)

    def check():
        cached = view.totals()
        fresh = WaitingTotals.fold(view)
        assert cached.t_alone == fresh.t_alone
        assert cached.nprocs_t_alone == fresh.nprocs_t_alone
        assert (cached.positive, cached.count) == (fresh.positive, fresh.count)

    for i in range(120):
        op = rng.integers(0, 3)
        if op in (0, 1) or not names:
            d = desc(f"a{i}", int(rng.integers(1, 64)),
                     float(rng.uniform(0.0, 3.0)))
            names[d.app] = None
            descriptors[d.app] = d
            view.note_append(d)
        else:
            victim = list(names)[int(rng.integers(0, len(names)))]
            del names[victim]
            del descriptors[victim]
            view.note_remove()
        if i % 7 == 0:
            check()
    check()

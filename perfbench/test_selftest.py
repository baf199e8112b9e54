"""Self-tests of the benchmark's tracer.

Run from the root of a checkout (the repository's own test run does not
collect this directory)::

    python3 -m pytest perfbench/test_selftest.py -q

The injected-slowdown test adds a known busy delay to every call of one
layer's public function (``Fabric.path_links``, the network layer) and
checks that the network row absorbs that delay while every other row
stays within its run-to-run spread.
"""

import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run._import_package(), "package sources not found next to perfbench"

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import Clock, SimulationWorkload, _many_writers  # noqa: E402

#: A small many-writers run: every simulation layer, a quarter second.
WORKLOAD = SimulationWorkload("many-writers-small",
                              lambda seed: _many_writers(seed, napps=100))
DELAY_S = 500e-6
REPEATS = 5


def _traced(state, reference, inject=None, repeats=REPEATS):
    tracers = []
    for _ in range(repeats):
        tracer = Tracer()
        tracer.install(inject=inject)
        try:
            measurement = WORKLOAD.execute(state, Clock(tracer), reference)
        finally:
            tracer.uninstall()
        assert not measurement.problems
        tracers.append(tracer)
    return tracers


def _rows(tracers, layer):
    return [tracer.layer_metrics()[f"{layer}.self_s"] for tracer in tracers]


def test_layer_rows_sum_to_traced_wall():
    state = WORKLOAD.setup(3)
    reference = WORKLOAD.warmup(state, [])
    (tracer,) = _traced(state, reference, repeats=1)
    metrics = tracer.layer_metrics()
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert abs(total - metrics["trace.wall_s"]) <= 1e-9 * metrics["trace.wall_s"]


def test_uncovered_round_time_merges_overlapping_rounds():
    tracer = Tracer()
    # One repeat's root, two top-level spans, one span nested in the second.
    for t0, t1, parent, layer in ((0, 100, -1, 0), (10, 20, 0, 1),
                                  (30, 50, 0, 2), (32, 40, 2, 3)):
        tracer.sp_t0.append(t0)
        tracer.sp_t1.append(t1)
        tracer.sp_parent.append(parent)
        tracer.sp_layer.append(layer)
    tracer.repeats = 1
    # Two overlapping rounds (union 5-45) and one round no span touches.
    tracer.inflight.extend([15, 45, 5, 25, 60, 70])
    # Union 40 + 10 ns; spans cover 10 (10-20) + 15 (30-45) of it.
    assert abs(tracer.uncovered_round_s() - 25e-9) < 1e-15


def test_uninstall_restores_every_entry_point():
    from repro.experiments import engine
    from repro.network.topology import Fabric
    before = (Fabric.path_links, engine.execute_spec)
    tracer = Tracer()
    tracer.install()
    assert Fabric.path_links is not before[0]
    tracer.uninstall()
    assert (Fabric.path_links, engine.execute_spec) == before


def test_injected_slowdown_lands_in_its_layer():
    from repro.network.topology import Fabric
    state = WORKLOAD.setup(3)
    reference = WORKLOAD.warmup(state, [])
    base, slow = [], []
    for _ in range(REPEATS):
        # Alternate plain and slowed repeats so host load drifts hit both.
        base += _traced(state, reference, repeats=1)
        slow += _traced(state, reference, repeats=1,
                        inject={(Fabric, "path_links"): DELAY_S})

    injected = statistics.median(t.route_calls for t in slow) * DELAY_S
    grown = (statistics.median(_rows(slow, "network"))
             - statistics.median(_rows(base, "network")))
    assert injected > 0.05, "too few calls for the delay to be measurable"
    assert abs(grown - injected) <= 0.25 * injected, (grown, injected)

    for layer in LAYERS:
        if layer == "network":
            continue
        before, after = _rows(base, layer), _rows(slow, layer)
        spread = max(before) - min(before)
        allowed = max(2 * spread, 0.15 * statistics.median(before), 3e-3)
        shift = abs(statistics.median(after) - statistics.median(before))
        assert shift <= allowed, (layer, shift, allowed)

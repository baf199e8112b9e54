"""The repo benchmark's tracer still sees every service exchange.

``perfbench/tracer.py`` groups a traced service replay's spans by the
``seq`` its probe reads from each ``CoordinationService._apply(conn,
entry)`` call, so the daemon must apply every exchange through that
method with a mapping ``entry``.  The tracer is loaded read-only, as in
``tests/test_perfbench_hooks.py``, and installed around a small lockstep
replay.
"""

import asyncio
import importlib.util
from pathlib import Path

from repro.experiments.scenarios import build_scenario
from repro.service.loadgen import run_service_benchmark
from repro.service.trace import record_trace

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


class _SeqTracer(tracer.Tracer):
    """The benchmark's tracer, noting each ``seq`` its apply probe reads."""

    def __init__(self):
        super().__init__()
        self.applied = []

    def _probe_apply(self, args, kwargs):
        self.applied.append(args[2].get("seq"))
        super()._probe_apply(args, kwargs)


def test_traced_lockstep_replay_probes_every_seq():
    spec, = build_scenario("service-many-writers", napps=6, nservers=4,
                           phases=2, seed=5, strategy="dynamic")
    trace, result = record_trace(spec)
    hooks = _SeqTracer()
    hooks.install()
    try:
        hooks.begin_repeat()
        stats, _service = asyncio.run(asyncio.wait_for(
            run_service_benchmark(
                spec, 2, pipeline=1,
                trace_and_reference=(trace, result.decisions,
                                     float(result.perf["wall_seconds"]))),
            60))
        hooks.end_repeat()
    finally:
        hooks.uninstall()
    assert stats.equivalent
    assert len(stats.latencies) == len(trace)
    assert hooks.applied == list(range(len(trace)))

"""The benchmark's workloads, driven through the package's public entry points.

Each workload has a *set-up* (build the specs; for the service replay,
also record the coordination trace) and a *measured phase* (one serial
``ExperimentEngine.run_all``, or one ``run_service_benchmark`` replay).
The seed argument only feeds the scenario builders: the program receives
generated specs, never the seed itself.

Why these three, and what each one should and should not move, is stated
in ``WHY`` below and in ``predictions.json``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.experiments import ExperimentEngine, build_scenario
from repro.experiments.engine import SerialExecutor
from repro.service.loadgen import run_service_benchmark
from repro.service.protocol import decisions_to_json
from repro.service.trace import record_trace

#: Scale of the many-application workloads (the ROADMAP regime).
NAPPS = 500
NSERVERS = 32
#: Service replay: lockstep clients, no more connections than cores.
NCLIENTS = 2
SERVICE_PHASES = 3
CODEC = "binary"

PAPER_SCENARIOS = ("fig02-contiguous-pair", "fig06-size-split",
                   "fig09-policies", "surveyor-four-files")

WHY = {
    "paper-figures": "few apps of hundreds of ranks each: large flow "
                     "components, so kernel and event-core work dominates",
    "many-writers": "500 small apps on 32 servers with baselines: tiny "
                    "components and heavy coordination",
    "service-replay": "the recorded many-writers trace replayed through the "
                      "daemon by 2 lockstep clients: wire and server only",
}


class Measurement:
    """What one measured repeat produced, after its timed region ended."""

    def __init__(self, ops: int, failed: int, decisions: int,
                 latencies: List[float], perf: Dict[str, float],
                 problems: List[str]):
        self.ops = ops
        self.failed = failed
        self.decisions = decisions
        self.latencies = latencies
        self.perf = perf
        self.problems = problems


class Clock:
    """Times the measured region; the traced run swaps in a span root."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0
        self._t0 = 0.0

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_repeat()
        self._t0 = perf_counter()

    def stop(self) -> None:
        self.seconds = perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.end_repeat()


class TimedExecutor(SerialExecutor):
    """Serial executor that times every simulation run and keeps its counters."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.perf: Dict[str, float] = {}

    def map(self, fn, items):
        results = []
        for item in items:
            t0 = perf_counter()
            result = fn(item)
            self.times.append(perf_counter() - t0)
            results.append(result)
            for key, value in result.perf.items():
                self.perf[key] = self.perf.get(key, 0) + value
        return results


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[int(round(q * (len(ordered) - 1)))]


def canonical_digest(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def results_digest(results) -> str:
    """Per-app phase/read/write times, makespans and decision logs."""
    return canonical_digest([{
        "spec": r.spec.name,
        "makespan": r.makespan,
        "apps": {name: [rec.write_times, rec.io_write_times, rec.wait_times,
                        rec.t_alone]
                 for name, rec in r.records.items()},
        "decisions": decisions_to_json(r.decisions),
    } for r in results])


@contextmanager
def byte_conservation(problems: List[str]):
    """Check, per spec run, that each app got exactly the bytes it asked for.

    Delivered bytes are summed per flow label (the app name) as flows
    complete; requested bytes are ``iterations x bytes_per_phase`` of the
    app's configuration.  Adds one line to ``problems`` per mismatch.
    """
    from repro.experiments import engine as exp_engine
    from repro.service import trace as svc_trace
    from repro.simcore.fairshare import FlowNetwork

    delivered: Dict[str, float] = {}
    finish = FlowNetwork._finish_flow
    execute = exp_engine.execute_spec

    def counted_finish(net, flow, now):
        delivered[flow.label] = delivered.get(flow.label, 0.0) + flow.size
        return finish(net, flow, now)

    def checked_execute(spec, *args, **kwargs):
        delivered.clear()
        result = execute(spec, *args, **kwargs)
        for workload in spec.workloads:
            cfg = workload.to_ior()
            want = float(cfg.iterations * cfg.bytes_per_phase)
            got = delivered.get(cfg.name, 0.0)
            if abs(got - want) > 1e-9 * max(1.0, want):
                problems.append(f"{spec.name}/{cfg.name}: delivered {got!r} "
                                f"of {want!r} bytes")
        return result

    FlowNetwork._finish_flow = counted_finish
    exp_engine.execute_spec = checked_execute
    svc_trace.execute_spec = checked_execute
    try:
        yield
    finally:
        FlowNetwork._finish_flow = finish
        exp_engine.execute_spec = execute
        svc_trace.execute_spec = execute


class SimulationWorkload:
    """A campaign run serially through ``ExperimentEngine.run_all``.

    One operation is one application I/O phase; a repeat whose digest
    differs from the warm-up's counts all its phases as failed.  A round
    is one simulation run (campaign spec or baseline), timed by the
    executor; every repeat runs the same runs in the same order.  On
    paper-figures that is 92 runs of one spec each.  On many-writers it is
    only the campaign run and its few distinct single-app baselines (the
    500 apps share about four configurations), so there ``round_p99_ms`` is
    the campaign run, close to ``wall_s``, and ``round_p50_ms`` one
    single-app baseline run.
    """

    setup_repeats = 15
    #: Set-ups per timed sample: a build takes 5-15 ms.
    setup_batch = 16

    def __init__(self, name: str, build):
        self.name = name
        self._build = build

    def setup(self, seed: int):
        return self._build(seed)

    def fingerprint(self, specs) -> str:
        return canonical_digest([spec.to_dict() for spec in specs])

    def warmup(self, specs, problems: List[str]) -> str:
        with byte_conservation(problems):
            results = ExperimentEngine().run_all(specs)
        return results_digest(results)

    def execute(self, specs, clock: Clock, reference: str) -> Measurement:
        executor = TimedExecutor()
        engine = ExperimentEngine(executor=executor)
        clock.start()
        results = engine.run_all(specs)
        clock.stop()
        digest = results_digest(results)
        ops = sum(len(rec.write_times)
                  for r in results for rec in r.records.values())
        problems = []
        if digest != reference:
            problems.append(f"{self.name}: result digest {digest[:16]} "
                            f"differs from the warm-up's {reference[:16]}")
        return Measurement(
            ops=ops, failed=ops if problems else 0,
            decisions=sum(len(r.decisions) for r in results),
            latencies=executor.times, perf=executor.perf, problems=problems)


    @staticmethod
    def round_times(measurements, q: float) -> float:
        """Percentile ``q`` over runs of each run's best time in any repeat.

        Taking the best per run before the percentile keeps one slow
        moment of the host from becoming the p99 of a repeat that has
        only a hundred runs.
        """
        best = [min(times) for times in zip(*(m.latencies
                                              for m in measurements))]
        return percentile(best, q)


def _paper_figures(seed: int):
    # The paper campaigns have no random input: the seed is ignored.
    return [spec.with_(measure_alone=True)
            for name in PAPER_SCENARIOS for spec in build_scenario(name)]


def _many_writers(seed: int, napps: int = NAPPS):
    return build_scenario("many-writers", napps=napps, nservers=NSERVERS,
                          strategy="dynamic", measure_alone=True, seed=seed)


class ServiceState:
    def __init__(self, spec, trace, result):
        self.spec = spec
        self.trace = trace
        self.result = result
        self.reference_json = decisions_to_json(result.decisions)


class ServiceReplayWorkload:
    """A recorded many-writers trace replayed through a self-hosted daemon.

    Set-up builds the spec and records the trace in-process.  The measured
    phase is one ``run_service_benchmark`` call with that trace: daemon
    start, lockstep replay by ``NCLIENTS`` clients, digest probe, drain.
    One operation is one exchange; latency samples are send -> ack round
    times.  A repeat fails as a whole when the daemon's decision log is not
    string-equal to the recording's, or when the replay raises.
    """

    name = "service-replay"
    setup_repeats = 5
    #: Recording the trace takes about half a second on its own.
    setup_batch = 1

    @staticmethod
    def round_times(measurements, q: float) -> float:
        """Percentile ``q`` of one replay's round times, best replay.

        A replay that failed outright has no round times; with none left
        the run reports 0 and is marked incorrect anyway.
        """
        return min((percentile(m.latencies, q) for m in measurements
                    if m.latencies), default=0.0)

    def setup(self, seed: int) -> ServiceState:
        spec, = build_scenario("service-many-writers", napps=NAPPS,
                               nservers=NSERVERS, phases=SERVICE_PHASES,
                               nclients=NCLIENTS, seed=seed)
        trace, result = record_trace(spec)
        return ServiceState(spec, trace, result)

    def fingerprint(self, state: ServiceState) -> str:
        return canonical_digest([state.spec.to_dict(), state.trace.to_dict()])

    def warmup(self, state: ServiceState, problems: List[str]) -> str:
        with byte_conservation(problems):
            record_trace(state.spec)
        problems.extend(self.execute(state, Clock()).problems)
        return results_digest([state.result])

    def execute(self, state: ServiceState, clock: Clock,
                reference: Optional[str] = None) -> Measurement:
        """One replay; ``reference`` is unused (the recording is the
        reference, checked against the daemon's log)."""
        inproc_wall = float(state.result.perf.get("wall_seconds", 0.0))

        async def replay():
            clock.start()
            try:
                return await run_service_benchmark(
                    state.spec, NCLIENTS,
                    trace_and_reference=(state.trace, state.result.decisions,
                                         inproc_wall),
                    codec=CODEC)
            finally:
                clock.stop()

        exchanges = len(state.trace)
        problems = []
        try:
            stats, service = asyncio.run(replay())
        except Exception as exc:  # a refused or broken replay is a failure
            problems.append(f"{self.name}: replay raised {exc!r}")
            return Measurement(ops=exchanges, failed=exchanges,
                               decisions=0, latencies=[], perf={},
                               problems=problems)
        if not stats.equivalent:
            problems.append(f"{self.name}: daemon decision digest differs")
        if decisions_to_json(service.decision_log) != state.reference_json:
            problems.append(f"{self.name}: daemon decision log is not "
                            "string-equal to the recording")
        if len(stats.latencies) != exchanges:
            problems.append(f"{self.name}: {len(stats.latencies)} acks for "
                            f"{exchanges} exchanges")
        return Measurement(
            ops=exchanges,
            failed=exchanges if problems else 0, decisions=stats.decisions,
            latencies=list(stats.latencies), perf=service.perf.as_dict(),
            problems=problems)


WORKLOADS = {
    "paper-figures": SimulationWorkload("paper-figures", _paper_figures),
    "many-writers": SimulationWorkload("many-writers", _many_writers),
    "service-replay": ServiceReplayWorkload(),
}

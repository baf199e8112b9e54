"""Layer spans recorded from outside the program.

:class:`Tracer` patches the public entry points of each layer of the
``repro`` package (plus the few private callbacks the event core invokes
directly, listed in :func:`_targets`) with wrappers that open a span on
entry and close it on exit.  Generator functions (simulation processes,
ADIO collectives, CALCioM session steps) are timed per resume and
coroutines per step between awaits, so a span never covers time the
code spent suspended.

Spans live in flat in-memory arrays (start, end, parent, layer, group)
and are written once, by :meth:`Tracer.dump`, when the benchmark ends.
A span's *self time* is its duration minus the duration of its child
spans; the root span of each measured repeat belongs to the
``unattributed`` row, so every layer's self time plus that row adds up
to the traced wall time exactly.

Reuse probes ride on the same wrappers: how often a collective-write
plan or a fabric route is asked for again with arguments already seen.
Each probe costs one dictionary lookup per call.
"""

from __future__ import annotations

import types
from array import array
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

#: Row order of the per-layer table.  ``unattributed`` holds the root
#: span of each repeat: time inside the measured phase that no layer's
#: wrapped function covers (event-loop polling, socket syscalls, glue).
LAYERS = (
    "unattributed", "experiments", "apps", "mpisim", "storage", "network",
    "simcore.engine", "simcore.fairshare", "core", "service.protocol",
    "service",
)
UNATTRIBUTED = 0
_INDEX = {name: i for i, name in enumerate(LAYERS)}

CALL, GEN, CORO = "call", "gen", "coro"


def _targets() -> List[Tuple[Any, str, str, str]]:
    """(owner, attribute, layer, kind) for every wrapped entry point."""
    from repro.core.arbiter import Arbiter
    from repro.core.session import CalciomSession
    from repro.core.sharding import ShardRouter
    from repro.core.strategies import Strategy
    from repro.apps.ior import IORApp
    from repro.experiments import engine as exp_engine
    from repro.mpisim import adio as adio_mod
    from repro.mpisim.adio import ADIOLayer
    from repro.mpisim.communicator import Communicator
    from repro.network.topology import Fabric
    from repro.service.client import ServiceClient
    from repro.service.protocol import WireDecoder, WireEncoder
    from repro.service.server import CoordinationService
    from repro.simcore.engine import Simulator
    from repro.simcore.fairshare import FlowNetwork
    from repro.storage.cache import WriteBackCache
    from repro.storage.partitioned import PartitionedFileSystem
    from repro.storage.pfs import ParallelFileSystem
    from repro.storage.server import StorageServer

    targets = [
        (exp_engine.ExperimentEngine, "run_all", "experiments", CALL),
        (exp_engine, "execute_spec", "experiments", CALL),
        (IORApp, "_run", "apps", GEN),
        (ADIOLayer, "write_collective", "mpisim", GEN),
        (ADIOLayer, "read_collective", "mpisim", GEN),
        (ADIOLayer, "write_independent", "mpisim", GEN),
        (adio_mod, "plan_collective_write", "mpisim", CALL),
        (Communicator, "shuffle", "mpisim", CALL),
        (ParallelFileSystem, "write", "storage", CALL),
        (ParallelFileSystem, "read", "storage", CALL),
        (PartitionedFileSystem, "write", "storage", CALL),
        (PartitionedFileSystem, "read", "storage", CALL),
        (StorageServer, "submit", "storage", CALL),
        (WriteBackCache, "_boundary_fired", "storage", CALL),
        (WriteBackCache, "_on_rates_changed", "storage", CALL),
        (Fabric, "path_links", "network", CALL),
        (Fabric, "transfer", "network", CALL),
        (Fabric, "send_message", "network", CALL),
        (Simulator, "run", "simcore.engine", CALL),
        (CalciomSession, "prepare", "core", CALL),
        (CalciomSession, "complete", "core", CALL),
        (CalciomSession, "inform", "core", GEN),
        (CalciomSession, "wait", "core", GEN),
        (CalciomSession, "release", "core", GEN),
        (WireEncoder, "encode", "service.protocol", CALL),
        (WireDecoder, "decode", "service.protocol", CALL),
        (ServiceClient, "request", "service", CORO),
        (ServiceClient, "_pump_loop", "service", CORO),
        (CoordinationService, "_reader_loop", "service", CORO),
        (CoordinationService, "_writer_loop", "service", CORO),
        (CoordinationService, "_apply", "service", CALL),
    ]
    # The flow network's public operations, plus the reallocation and
    # completion-wake callbacks the event core invokes without going
    # through any public method.
    for name in ("start_flow", "start_flows", "pause_flow", "resume_flow",
                 "cancel_flow", "_reallocate", "_wake_fired"):
        targets.append((FlowNetwork, name, "simcore.fairshare", CALL))
    # Coordination: every exchange entry point of the arbiter and the
    # shard router, the batched round flush (an event-core callback) and
    # every strategy's batch decision.
    for owner in (Arbiter, ShardRouter):
        for name in ("on_inform", "submit_inform", "on_release",
                     "submit_release", "on_complete", "withdraw"):
            targets.append((owner, name, "core", CALL))
    targets.append((Arbiter, "_flush_pending", "core", CALL))
    pending = [Strategy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "decide_batch" in vars(cls):
            targets.append((cls, "decide_batch", "core", CALL))
    return targets


class Tracer:
    """Records layer spans and counters while installed.

    ``install()`` patches every target; ``uninstall()`` restores the
    originals.  Between the two, :meth:`repeat` marks one measured repeat
    as the root span.  ``inject`` maps ``(owner, attribute)`` to extra
    seconds of busy work added to each call of that function, for the
    self-test that checks a slowdown lands in the right row.
    """

    def __init__(self) -> None:
        n = len(LAYERS)
        self.self_ns = [0] * n
        self.calls = [0] * n
        self.wall_ns = 0
        self.orphan_ns = 0
        self.repeats = 0
        #: Span identifier shared by every span of one spec run (simulation
        #: workloads) or one exchange ``seq`` (service replay).
        self.group = -1
        self._stack: List[list] = []
        self.sp_t0 = array("q")
        self.sp_t1 = array("q")
        self.sp_parent = array("q")
        self.sp_layer = array("b")
        self.sp_group = array("q")
        #: Flat (start, end) pairs of every ``ServiceClient.request`` call:
        #: the send -> ack rounds of the service replay.
        self.inflight = array("q")
        # Reuse probes and outside counts.
        self.plan_keys: Dict[Any, None] = {}
        self.plan_calls = 0
        self.plan_repeats = 0
        self.route_keys: Dict[Any, None] = {}
        self.route_calls = 0
        self.route_repeats = 0
        self.pfs_reads = 0
        self.pfs_writes = 0
        self.frames_encoded = 0
        self.bytes_encoded = 0
        self.bumps = 0
        self.baseline_lookups = 0
        self.baseline_runs = 0
        self.perf: Dict[str, float] = {}
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------
    def enter(self, layer: int) -> None:
        stack = self._stack
        idx = len(self.sp_t0)
        self.sp_parent.append(stack[-1][0] if stack else -1)
        self.sp_layer.append(layer)
        self.sp_group.append(self.group)
        self.sp_t0.append(0)
        self.sp_t1.append(0)
        stack.append([idx, layer, 0, perf_counter_ns()])

    def exit(self) -> int:
        t1 = perf_counter_ns()
        stack = self._stack
        idx, layer, child, t0 = stack.pop()
        duration = t1 - t0
        if stack:
            stack[-1][2] += duration
            self.self_ns[layer] += duration - child
        elif layer == UNATTRIBUTED:
            self.self_ns[layer] += duration - child
        else:
            # A step outside every measured repeat (a task the event loop
            # finishes after the repeat returned): not part of any wall.
            self.orphan_ns += duration
        self.sp_t0[idx] = t0
        self.sp_t1[idx] = t1
        return duration

    def begin_repeat(self) -> None:
        """Open the root span of one measured repeat."""
        # Reuse probes count repeats within one measured phase only.
        self.plan_keys.clear()
        self.route_keys.clear()
        self.enter(UNATTRIBUTED)

    def end_repeat(self) -> None:
        self.wall_ns += self.exit()
        self.repeats += 1

    # -- wrappers ----------------------------------------------------------
    def _wrap_call(self, fn, layer: int, probe=None):
        tracer = self
        calls = self.calls

        def traced(*args, **kwargs):
            calls[layer] += 1
            if probe is not None:
                probe(args, kwargs)
            tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
        traced.__wrapped__ = fn
        return traced

    def _steps(self, inner, layer: int, group=None):
        """Drive generator/coroutine ``inner`` one timed step at a time."""
        value, error = None, None
        while True:
            if group is not None:
                self.group = group
            self.enter(layer)
            try:
                if error is not None:
                    yielded = inner.throw(error)
                else:
                    yielded = inner.send(value)
            except StopIteration as stop:
                self.exit()
                return stop.value
            except BaseException:
                self.exit()
                raise
            self.exit()
            value, error = None, None
            try:
                value = yield yielded
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into ``inner``
                error = exc

    def _wrap_gen(self, fn, layer: int):
        tracer = self
        calls = self.calls

        def traced(*args, **kwargs):
            calls[layer] += 1
            return tracer._steps(fn(*args, **kwargs), layer)
        traced.__wrapped__ = fn
        return traced

    def _wrap_coro(self, fn, layer: int, inflight=None):
        """Time each step of the coroutine; with ``inflight``, also append
        the (start, end) of the whole call, suspensions included."""
        calls = self.calls
        drive = types.coroutine(self._steps)

        async def traced(*args, **kwargs):
            calls[layer] += 1
            seq = kwargs.get("seq")
            if inflight is None:
                return await drive(fn(*args, **kwargs), layer, seq)
            t0 = perf_counter_ns()
            try:
                return await drive(fn(*args, **kwargs), layer, seq)
            finally:
                inflight.append(t0)
                inflight.append(perf_counter_ns())
        traced.__wrapped__ = fn
        return traced

    # -- probes ------------------------------------------------------------
    def _probe_plan(self, args, kwargs) -> None:
        key = (args, tuple(sorted(kwargs.items())))
        self.plan_calls += 1
        if key in self.plan_keys:
            self.plan_repeats += 1
        else:
            self.plan_keys[key] = None

    def _probe_route(self, args, kwargs) -> None:
        # A route is the same across fabrics of the same shape: key on the
        # graph's size so per-run fabrics of one platform share entries.
        fabric, src, dst = args[0], args[1], args[2]
        graph = fabric.graph
        key = (graph.number_of_nodes(), graph.number_of_edges(), src, dst)
        self.route_calls += 1
        if key in self.route_keys:
            self.route_repeats += 1
        else:
            self.route_keys[key] = None

    def _probe_read(self, args, kwargs) -> None:
        self.pfs_reads += 1

    def _probe_write(self, args, kwargs) -> None:
        self.pfs_writes += 1

    def _probe_apply(self, args, kwargs) -> None:
        seq = args[2].get("seq")
        if seq is not None:
            self.group = seq

    def _probe_execute(self, args, kwargs) -> None:
        self.group = len(self.sp_t0)
        if args[0].meta.get("baseline"):
            self.baseline_runs += 1

    def _probe_run_all(self, args, kwargs) -> None:
        self.baseline_lookups += sum(len(spec.workloads) for spec in args[1]
                                     if spec.measure_alone)

    # -- install / uninstall -----------------------------------------------
    def install(self, inject: Optional[Dict[Tuple[Any, str], float]] = None
                ) -> None:
        from repro.perf import PerfCounters
        from repro.service.protocol import WireEncoder

        if self._saved:
            raise RuntimeError("tracer already installed")
        inject = dict(inject or {})
        probes = {
            "ExperimentEngine.run_all": self._probe_run_all,
            "repro.experiments.engine.execute_spec": self._probe_execute,
            "repro.mpisim.adio.plan_collective_write": self._probe_plan,
            "ParallelFileSystem.read": self._probe_read,
            "ParallelFileSystem.write": self._probe_write,
            "Fabric.path_links": self._probe_route,
            "CoordinationService._apply": self._probe_apply,
        }
        for owner, attr, layer_name, kind in _targets():
            original = vars(owner)[attr]
            fn = original
            delay = inject.pop((owner, attr), None)
            if delay is not None:
                fn = _slowed(fn, delay)
            layer = _INDEX[layer_name]
            if kind == GEN:
                wrapped = self._wrap_gen(fn, layer)
            elif kind == CORO:
                wrapped = self._wrap_coro(
                    fn, layer,
                    self.inflight if (owner.__name__, attr)
                    == ("ServiceClient", "request") else None)
            else:
                probe = probes.get(f"{owner.__name__}.{attr}")
                wrapped = self._wrap_call(fn, layer, probe)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        if inject:
            raise ValueError(f"injection targets not traced: {list(inject)}")

        # Counts that need no span: perf-counter bumps and encoded frames.
        tracer = self
        bump = PerfCounters.bump

        def counted_bump(counters, name, n=1):
            tracer.bumps += 1
            return bump(counters, name, n)
        self._saved.append((PerfCounters, "bump", bump))
        PerfCounters.bump = counted_bump

        encode = WireEncoder.encode

        def sized_encode(encoder, message):
            data = encode(encoder, message)
            tracer.frames_encoded += 1
            tracer.bytes_encoded += len(data)
            return data
        self._saved.append((WireEncoder, "encode", encode))
        WireEncoder.encode = sized_encode

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def add_perf(self, counters: Dict[str, float]) -> None:
        """Fold in the program's own counters of one traced repeat."""
        for key, value in counters.items():
            self.perf[key] = self.perf.get(key, 0) + value

    def layer_metrics(self) -> Dict[str, float]:
        """Per-repeat mean self time and call count of every layer."""
        n = max(1, self.repeats)
        out: Dict[str, float] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.self_s"] = self.self_ns[i] / 1e9 / n
            if i != UNATTRIBUTED:
                out[f"{name}.calls"] = self.calls[i] / n
        out["trace.wall_s"] = self.wall_ns / 1e9 / n
        return out

    def uncovered_round_s(self) -> float:
        """Per-repeat time with a request in flight that no layer span covers.

        The rounds of concurrent clients overlap, so they are first merged
        into a union of disjoint intervals.  The layer spans directly under
        a repeat's root never overlap one another (the run is one thread),
        and their nested spans lie inside them, so the covered part of the
        union is the sum of each top-level span's overlap with it.  What is
        left is socket, event-loop and sequencer time.
        """
        import numpy as np
        if not self.inflight:
            return 0.0
        pairs = np.frombuffer(self.inflight, dtype=np.int64).reshape(-1, 2)
        pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
        starts, ends = pairs[:, 0], np.maximum.accumulate(pairs[:, 1])
        # A new disjoint interval begins wherever a round starts after every
        # earlier round has ended.
        new = np.ones(len(starts), dtype=bool)
        new[1:] = starts[1:] > ends[:-1]
        first = np.flatnonzero(new)
        u_start = starts[first]
        u_end = ends[np.append(first[1:] - 1, len(starts) - 1)]
        before = np.concatenate(([0], np.cumsum(u_end - u_start)))

        def covered_until(t):
            # Length of the union that lies before each time in ``t``.
            i = np.searchsorted(u_start, t, side="right") - 1
            j = np.maximum(i, 0)
            inside = np.minimum(t - u_start[j], u_end[j] - u_start[j])
            return np.where(i < 0, 0, before[j] + inside)

        parent = np.frombuffer(self.sp_parent, dtype=np.int64)
        layer = np.frombuffer(self.sp_layer, dtype=np.int8)
        t0 = np.frombuffer(self.sp_t0, dtype=np.int64)
        t1 = np.frombuffer(self.sp_t1, dtype=np.int64)
        roots = (parent == -1) & (layer == UNATTRIBUTED)
        top = (parent >= 0) & roots[np.maximum(parent, 0)]
        covered = (covered_until(t1[top]) - covered_until(t0[top])).sum()
        return float(before[-1] - covered) / 1e9 / max(1, self.repeats)

    def dump(self, path) -> int:
        """Write every span (and the layer names) to ``path`` (.npz)."""
        import numpy as np
        np.savez_compressed(
            path, layers=np.array(LAYERS),
            t0=np.frombuffer(self.sp_t0, dtype=np.int64),
            t1=np.frombuffer(self.sp_t1, dtype=np.int64),
            parent=np.frombuffer(self.sp_parent, dtype=np.int64),
            layer=np.frombuffer(self.sp_layer, dtype=np.int8),
            group=np.frombuffer(self.sp_group, dtype=np.int64))
        return len(self.sp_t0)


def _slowed(fn, seconds: float):
    """``fn`` plus ``seconds`` of busy work per call (the injected delay)."""
    from time import perf_counter

    def slowed(*args, **kwargs):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass
        return fn(*args, **kwargs)
    return slowed

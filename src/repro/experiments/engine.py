"""The experiment engine: executors, baseline cache, uniform results.

:class:`ExperimentEngine` turns declarative
:class:`~repro.experiments.spec.ExperimentSpec`\\ s into
:class:`ResultSet`\\ s.  Campaigns — Δ-graphs, size-split sweeps, policy
comparisons — are lists of *independent fresh-platform* simulations, so
the engine fans them out through a pluggable executor:

* :class:`SerialExecutor` — in-process, the default;
* :class:`ParallelExecutor` — a ``ProcessPoolExecutor`` fan-out that
  saturates all cores.  Simulations are deterministic, so the parallel
  result set is *identical* to the serial one.

Every run yields one :class:`ExperimentResult` — per-application
:class:`~repro.experiments.runner.AppRecord`\\ s keyed by workload name,
the decision log and the machine-wide metrics — whether it holds one
application, a Δ-graph pair or a whole trace window.

Standalone baselines are owned by an explicit, injectable
:class:`BaselineCache`.  The engine computes every missing baseline
*before* fanning out, so workers never race on shared state.
"""

from __future__ import annotations

import os
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..apps import IORApp, IORConfig
from ..core import CalciomRuntime, DecisionRecord
from ..core.sharing import interfere_times
from ..perf import WallTimer, merge_counts
from ..platforms import Platform, PlatformConfig
from .deltagraph import DeltaGraph
from .runner import AppRecord
from .spec import BASELINE_NAME, ExperimentSpec, baseline_spec

__all__ = [
    "BaselineCache", "Executor", "SerialExecutor", "ParallelExecutor",
    "ExperimentResult", "ResultSet", "ExperimentEngine", "default_engine",
]


# ---------------------------------------------------------------------------
# Baseline cache
# ---------------------------------------------------------------------------

class BaselineCache:
    """Memo of standalone single-phase durations, keyed by (platform, workload).

    The key normalizes away the workload's name and start offset — a
    Δ-graph sweep reuses one baseline for every dt.  Unlike the old
    module-global dict this is injectable (each engine owns one, tests can
    isolate theirs) and clearable.
    """

    def __init__(self) -> None:
        self._values: Dict[tuple, float] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(platform: PlatformConfig, workload: IORConfig) -> tuple:
        return (platform, workload.with_(start_time=0.0, name=BASELINE_NAME))

    def get(self, platform: PlatformConfig,
            workload: IORConfig) -> Optional[float]:
        return self.lookup(self.key(platform, workload))

    def lookup(self, key: tuple) -> Optional[float]:
        """:meth:`get` by a key :meth:`key` already built."""
        value = self._values.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, platform: PlatformConfig, workload: IORConfig,
            value: float) -> None:
        self._values[self.key(platform, workload)] = value

    def clear(self) -> None:
        self._values.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: tuple) -> bool:
        return key in self._values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<BaselineCache entries={len(self)} hits={self.hits} "
                f"misses={self.misses}>")


# ---------------------------------------------------------------------------
# Execution primitives
# ---------------------------------------------------------------------------

def execute_spec(spec: ExperimentSpec,
                 coordinator_wrap: Optional[Callable[[Any], Any]] = None
                 ) -> "ExperimentResult":
    """Run one spec on a fresh platform (module-level: picklable for pools).

    Baselines are *not* attached here — the engine owns those, so worker
    processes never touch shared cache state.

    ``coordinator_wrap`` is an interception seam for the service layer:
    when given, the runtime's coordinator is replaced by
    ``coordinator_wrap(coordinator)`` *before any session is created*, so
    a proxy (e.g. :class:`repro.service.trace.RecordingRouter`) observes
    every Inform/Release/Complete exchange of the run.  The wrapper must
    present the coordinator's protocol surface; sessions capture it at
    creation time.
    """
    with WallTimer() as timer:
        platform = Platform(spec.platform)
        runtime: Optional[CalciomRuntime] = None
        try:
            if spec.strategy is not None:
                runtime = CalciomRuntime(platform, strategy=spec.strategy,
                                         **dict(spec.arbiter))
                if coordinator_wrap is not None:
                    runtime.coordinator = coordinator_wrap(
                        runtime.coordinator)
            apps: List[IORApp] = []
            for cfg in spec.workloads:
                app = IORApp(platform, cfg)
                if runtime is not None:
                    session = runtime.session(cfg.name, app.client,
                                              cfg.nprocs, app.comm,
                                              partitions=cfg.partitions)
                    app.guard = session
                    app.adio.guard = session
                apps.append(app)
            for app in apps:
                app.start()
            platform.sim.run()
        finally:
            # Shard worker processes (arbiter={"workers": "process"}) must
            # come down whether the run finished or died — and, on the
            # clean path, *before* the perf snapshot and decision-log read
            # so per-worker counters and logs are shipped back and merged.
            # RecordingRouter and friends forward close() to the router.
            if runtime is not None:
                runtime.close()

    records = {app.config.name: AppRecord.from_app(app) for app in apps}
    makespan = max(p.end for app in apps for p in app.phases)
    perf = platform.perf.as_dict()
    perf["wall_seconds"] = timer.seconds
    return ExperimentResult(
        spec=spec,
        records=records,
        decisions=list(runtime.decision_log) if runtime else [],
        makespan=makespan,
        worker_pid=os.getpid(),
        perf=perf,
    )


class Executor(ABC):
    """How a list of independent experiments gets executed."""

    @abstractmethod
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to every item, preserving order."""


class SerialExecutor(Executor):
    """Run experiments one after another in this process."""

    def map(self, fn, items):
        return [fn(item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Fan independent experiments out across worker processes.

    Falls back to serial execution (with a warning) when process pools are
    unavailable — sandboxed CI runners, restricted interpreters — so
    campaigns always complete.  Results are identical either way: the
    simulations are deterministic and share no state.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 chunksize: int = 1) -> None:
        self.max_workers = max_workers
        self.chunksize = chunksize

    def map(self, fn, items):
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        try:
            with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
                return list(pool.map(fn, items, chunksize=self.chunksize))
        except (OSError, PermissionError, BrokenProcessPool) as exc:
            warnings.warn(
                f"process pool unavailable ({exc!r}); running serially",
                RuntimeWarning, stacklevel=2,
            )
            return [fn(item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(max_workers={self.max_workers})"


# ---------------------------------------------------------------------------
# Uniform results
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    """Measured outcome of one spec: per-app records plus the decision log."""

    spec: ExperimentSpec
    records: Dict[str, AppRecord]
    decisions: List[DecisionRecord] = field(default_factory=list)
    makespan: float = 0.0
    #: Process that ran the simulation (excluded from equality so parallel
    #: and serial result sets compare equal).
    worker_pid: int = field(default=0, compare=False)
    #: Kernel instrumentation snapshot for this run — the platform's
    #: :class:`~repro.perf.PerfCounters` plus ``wall_seconds``.  Excluded
    #: from equality: wall-clock (and scheduling noise) varies per host.
    perf: Dict[str, float] = field(default_factory=dict, compare=False)

    # -- accessors ---------------------------------------------------------
    @property
    def strategy(self):
        return self.spec.strategy

    @property
    def dt(self) -> Optional[float]:
        return self.spec.dt

    def record(self, name: str) -> AppRecord:
        return self.records[name]

    # -- metrics -----------------------------------------------------------
    def interference_factors(self) -> Dict[str, float]:
        return {name: rec.interference_factor
                for name, rec in self.records.items()}

    def cpu_seconds_wasted(self) -> float:
        """Fig 11's machine-wide metric over first phases: Σ N_X · T_X."""
        return sum(rec.nprocs * rec.write_time
                   for rec in self.records.values())

    def sum_interference_factors(self) -> float:
        return sum(self.interference_factors().values())


@dataclass
class ResultSet:
    """Ordered collection of experiment results — one campaign's output.

    Assemble a Δ-graph with :meth:`delta_graph`, regroup a fan-out with
    :meth:`group_by_meta`, and export through
    :func:`repro.experiments.export.result_set_csv` / ``result_set_json``.
    """

    results: List[ExperimentResult] = field(default_factory=list)

    def __iter__(self) -> Iterator[ExperimentResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ResultSet(self.results[index])
        return self.results[index]

    def filter(self, predicate: Callable[[ExperimentResult], bool]
               ) -> "ResultSet":
        return ResultSet([r for r in self.results if predicate(r)])

    def group_by_meta(self, key: str) -> Dict[Any, "ResultSet"]:
        """Partition by a ``meta`` coordinate, preserving order."""
        groups: Dict[Any, ResultSet] = {}
        for result in self.results:
            groups.setdefault(result.spec.meta.get(key),
                              ResultSet()).results.append(result)
        return groups

    def worker_pids(self) -> List[int]:
        """Distinct simulation process ids (diagnostics for fan-out)."""
        return sorted({r.worker_pid for r in self.results})

    def total_perf(self) -> Dict[str, float]:
        """Summed perf counters over the campaign (see :mod:`repro.perf`)."""
        return merge_counts(r.perf for r in self.results)

    def delta_graph(self, with_expected: bool = False) -> DeltaGraph:
        """Assemble a Δ-graph from pair results carrying ``meta["dt"]``.

        Requires homogeneous two-application specs run with baselines
        (``measure_alone=True``), ordered as the sweep was declared.
        """
        if not self.results:
            raise ValueError("empty result set")
        first = self.results[0].spec
        if len(first.workloads) != 2:
            raise ValueError(
                f"delta_graph() needs exactly 2 workloads, got {first.names}")

        def shape(spec: ExperimentSpec) -> tuple:
            # The same (A, B) pair modulo the dt-induced start offsets.
            return tuple(w.with_(start_time=0.0) for w in spec.workloads)

        homogeneous = all(
            shape(r.spec) == shape(first)
            and r.spec.strategy == first.strategy
            and r.spec.platform == first.platform
            for r in self.results)
        if not homogeneous:
            raise ValueError("delta_graph() needs one identical (A, B) pair "
                             "per dt under one platform and strategy; "
                             "regroup heterogeneous campaigns with "
                             "group_by_meta() or filter() first")
        name_a, name_b = first.names
        recs_a = [r.records[name_a] for r in self.results]
        recs_b = [r.records[name_b] for r in self.results]
        t_alone_a, t_alone_b = recs_a[0].t_alone, recs_b[0].t_alone
        if t_alone_a is None or t_alone_b is None:
            raise ValueError("delta_graph() needs standalone baselines; "
                             "run the specs with measure_alone=True")
        # meta["dt"] when the spec came from a dt sweep, else B's offset.
        dts = np.array([
            r.spec.dt if r.spec.dt is not None
            else (r.spec.workloads[1].start_time
                  - r.spec.workloads[0].start_time)
            for r in self.results], dtype=float)
        graph = DeltaGraph(
            dts=dts,
            t_a=np.array([rec.write_time for rec in recs_a]),
            t_b=np.array([rec.write_time for rec in recs_b]),
            t_alone_a=t_alone_a, t_alone_b=t_alone_b,
            strategy=first.strategy, results=list(self.results),
        )
        if with_expected:
            # §II-C proportional sharing; a negative dt means B starts first.
            cfg = first.platform
            pair = first.workloads
            sizes = [w.bytes_per_phase for w in pair]
            weights = [w.nprocs for w in pair]
            caps = [w.nprocs * cfg.per_core_bandwidth for w in pair]
            expected = np.array([
                interfere_times(cfg.aggregate_bandwidth,
                                (0.0, dt) if dt >= 0 else (-dt, 0.0),
                                sizes, weights, caps)
                for dt in dts.tolist()])
            graph.expected_a, graph.expected_b = expected.T
        return graph


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class ExperimentEngine:
    """Executes experiment specs and owns the baseline cache.

    Parameters
    ----------
    executor:
        How independent simulations run; defaults to
        :class:`SerialExecutor`.  Pass :class:`ParallelExecutor` to fan a
        campaign out across cores.
    cache:
        The :class:`BaselineCache` for standalone times.  Injectable so
        tests and long-lived services control the memo's lifetime.
    """

    def __init__(self, executor: Optional[Executor] = None,
                 cache: Optional[BaselineCache] = None) -> None:
        self.executor = executor if executor is not None else SerialExecutor()
        # NOT ``cache or ...``: an empty BaselineCache is falsy (len == 0)
        # and must still be honoured when injected.
        self.cache = cache if cache is not None else BaselineCache()

    # -- baselines ---------------------------------------------------------
    def baseline(self, platform: PlatformConfig, workload: IORConfig,
                 use_cache: bool = True) -> float:
        """Standalone single-phase duration of ``workload`` on ``platform``."""
        if use_cache:
            cached = self.cache.get(platform, workload)
            if cached is not None:
                return cached
        result = execute_spec(baseline_spec(platform, workload))
        value = result.records[BASELINE_NAME].write_time
        if use_cache:
            self.cache.put(platform, workload, value)
        return value

    def _prime_baselines(self, specs: Sequence[ExperimentSpec]
                         ) -> List[Dict[str, tuple]]:
        """Compute every missing baseline, fanned out via the executor.

        Returns, per spec, the cache key of each workload by name (empty
        for a spec without ``measure_alone``), so attaching the baselines
        builds no key twice.
        """
        keys: List[Dict[str, tuple]] = []
        needed: List[Tuple[PlatformConfig, IORConfig]] = []
        seen = set()
        for spec in specs:
            named: Dict[str, tuple] = {}
            keys.append(named)
            if not spec.measure_alone:
                continue
            for workload in spec.workloads:
                key = named[workload.name] = BaselineCache.key(
                    spec.platform, workload)
                if key in self.cache or key in seen:
                    continue
                seen.add(key)
                needed.append((spec.platform, workload))
        if needed:
            runs = self.executor.map(
                execute_spec, [baseline_spec(p, w) for p, w in needed])
            for (platform, workload), result in zip(needed, runs):
                self.cache.put(platform, workload,
                               result.records[BASELINE_NAME].write_time)
        return keys

    def _attach_baselines(self, result: ExperimentResult,
                          keys: Dict[str, tuple]) -> None:
        """Set each record's ``t_alone`` from its workload's cache key."""
        lookup = self.cache.lookup
        for name, record in result.records.items():
            record.t_alone = lookup(keys[name])

    # -- execution ---------------------------------------------------------
    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        """Run one experiment (always in-process)."""
        result = execute_spec(spec)
        if spec.measure_alone:
            keys, = self._prime_baselines([spec])
            self._attach_baselines(result, keys)
        return result

    def run_all(self, specs: Iterable[ExperimentSpec]) -> ResultSet:
        """Run a campaign: baselines first (shared), then every spec.

        With a :class:`ParallelExecutor` both stages fan out across worker
        processes; the ordered :class:`ResultSet` is identical to a serial
        run because each spec is an independent deterministic simulation.
        """
        specs = list(specs)
        keys = self._prime_baselines(specs)
        results = list(self.executor.map(execute_spec, specs))
        for result, named in zip(results, keys):
            if result.spec.measure_alone:
                self._attach_baselines(result, named)
        return ResultSet(results)

    # -- campaign helpers --------------------------------------------------
    def delta_graph(self, platform: PlatformConfig, a: IORConfig,
                    b: IORConfig, dts: Sequence[float],
                    strategy: Optional[Any] = None,
                    with_expected: bool = False) -> DeltaGraph:
        """Sweep ``dts`` for (A, B) under ``strategy`` (None = uncoordinated)."""
        specs = [ExperimentSpec.pair(platform, a, b, dt=float(dt),
                                     strategy=strategy)
                 for dt in dts]
        return self.run_all(specs).delta_graph(with_expected=with_expected)

    def size_split_sweep(self, platform: PlatformConfig, base_a: IORConfig,
                         base_b: IORConfig, total_cores: int,
                         sizes_b: Sequence[int], dts: Sequence[float],
                         strategy: Optional[Any] = None
                         ) -> Dict[int, DeltaGraph]:
        """One Δ-graph per (N_A, N_B) split — the full Fig 6 campaign.

        All splits and dts go through *one* fan-out, so a parallel
        executor sees the whole campaign at once.
        """
        from .sweeps import split_pairs
        specs = []
        for na, nb in split_pairs(total_cores, sizes_b):
            for dt in dts:
                specs.append(ExperimentSpec.pair(
                    platform, base_a.with_(nprocs=na),
                    base_b.with_(nprocs=nb), dt=float(dt),
                    strategy=strategy, meta={"split": nb}))
        grouped = self.run_all(specs).group_by_meta("split")
        return {nb: rs.delta_graph() for nb, rs in grouped.items()}

    def strategy_comparison(self, platform: PlatformConfig, a: IORConfig,
                            b: IORConfig, dt: float,
                            strategies: Sequence[Optional[Any]] = (
                                None, "fcfs", "interrupt", "dynamic",
                            )) -> Dict[Optional[Any], ExperimentResult]:
        """The same pair under each coordination strategy (Fig 9/11 columns)."""
        specs = [ExperimentSpec.pair(platform, a, b, dt=dt, strategy=s)
                 for s in strategies]
        results = self.run_all(specs)
        return dict(zip(strategies, results))


# ---------------------------------------------------------------------------
# Default engine (backs the replay helpers)
# ---------------------------------------------------------------------------

_default_engine: Optional[ExperimentEngine] = None


def default_engine() -> ExperimentEngine:
    """The process-wide engine behind ``replay_result``."""
    global _default_engine
    if _default_engine is None:
        _default_engine = ExperimentEngine()
    return _default_engine

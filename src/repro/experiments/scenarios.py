"""Named experiment scenarios: declare workload mixes, don't hand-wire them.

Benchmarks, examples, and services pick a scenario by name and get back a
*campaign* — a list of :class:`~repro.experiments.spec.ExperimentSpec`\\ s
ready for :meth:`ExperimentEngine.run_all
<repro.experiments.engine.ExperimentEngine.run_all>`.  Every builder
returns a list (single-run scenarios return a list of one) so callers
compose uniformly; campaign coordinates (dt, split, policy) ride in each
spec's ``meta`` for regrouping via ``ResultSet.group_by_meta``.

Register your own with :func:`register_scenario`::

    @register_scenario("my-mix", "two bursty writers on Rennes")
    def my_mix(dt=0.0, strategy=None):
        ...
        return [ExperimentSpec.pair(platform, a, b, dt=dt,
                                    strategy=strategy)]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..mpisim import Contiguous, Strided
from ..platforms import (
    PlatformConfig, grid5000_nancy, grid5000_rennes, surveyor,
)
from ..simcore import ensure_rng
from ..traces import IntrepidModel, JobIOModel, generate_intrepid_like
from .replay import replay_spec
from .spec import ExperimentSpec, WorkloadSpec
from .sweeps import split_pairs

__all__ = [
    "Scenario", "register_scenario", "get_scenario", "build_scenario",
    "list_scenarios", "many_writers_platform",
]


@dataclass(frozen=True)
class Scenario:
    """A named campaign builder."""

    name: str
    description: str
    build: Callable[..., List[ExperimentSpec]]

    def __call__(self, **kwargs) -> List[ExperimentSpec]:
        return self.build(**kwargs)


_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(name: str, description: str = ""):
    """Decorator: register a campaign builder under ``name``."""
    def decorator(build: Callable[..., List[ExperimentSpec]]):
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[name] = Scenario(name=name, description=description,
                                   build=build)
        return build
    return decorator


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"available: {list_scenarios()}") from None


def build_scenario(name: str, **kwargs) -> List[ExperimentSpec]:
    """Build the named campaign with scenario-specific overrides."""
    return get_scenario(name).build(**kwargs)


def list_scenarios() -> List[str]:
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Built-in scenarios (the paper's experiment setups)
# ---------------------------------------------------------------------------

@register_scenario(
    "rennes-big-small",
    "Quickstart mix: a 600-core simulation against a 24-core analysis "
    "writer on Grid'5000 Rennes (strided 8 x 2 MB).")
def rennes_big_small(dt: float = 2.0, strategy: Optional[Any] = None,
                     big_procs: int = 600, small_procs: int = 24
                     ) -> List[ExperimentSpec]:
    pattern = Strided(block_size=2_000_000, nblocks=8)
    big = WorkloadSpec(name="big-sim", nprocs=big_procs, pattern=pattern,
                       procs_per_node=24)
    small = WorkloadSpec(name="small-analysis", nprocs=small_procs,
                         pattern=pattern, procs_per_node=24)
    return [ExperimentSpec.pair(grid5000_rennes(), big, small, dt=dt,
                                strategy=strategy, name="rennes-big-small")]


@register_scenario(
    "fig02-contiguous-pair",
    "Fig 2: two equal 336-process applications, 16 MB/process contiguous, "
    "on Grid'5000 Nancy — the canonical Δ-graph.")
def fig02_contiguous_pair(dts: Sequence[float] = (-14.0, -10.0, -6.0, -2.0,
                                                  0.0, 2.0, 6.0, 10.0, 14.0),
                          strategy: Optional[Any] = None,
                          ) -> List[ExperimentSpec]:
    pattern = Contiguous(block_size=16_000_000)
    a = WorkloadSpec(name="A", nprocs=336, pattern=pattern,
                     procs_per_node=24, grain=None)
    b = a.with_(name="B")
    return [ExperimentSpec.pair(grid5000_nancy(), a, b, dt=float(dt),
                                strategy=strategy, name="fig02")
            for dt in dts]


@register_scenario(
    "fig06-size-split",
    "Fig 6: 768 Rennes cores split between A and B (B in {24..384}), "
    "strided 8 x 2 MB — one Δ-graph per split (meta: split, dt).")
def fig06_size_split(total_cores: int = 768,
                     sizes_b: Sequence[int] = (24, 48, 96, 192, 384),
                     dts: Sequence[float] = (-10.0, -5.0, -2.0, 0.0, 2.0,
                                             5.0, 10.0, 15.0),
                     strategy: Optional[Any] = None) -> List[ExperimentSpec]:
    pattern = Strided(block_size=2_000_000, nblocks=8)
    base_a = WorkloadSpec(name="A", nprocs=1, pattern=pattern,
                          procs_per_node=24, grain=None)
    base_b = base_a.with_(name="B")
    specs = []
    for na, nb in split_pairs(total_cores, sizes_b):
        for dt in dts:
            specs.append(ExperimentSpec.pair(
                grid5000_rennes(), base_a.with_(nprocs=na),
                base_b.with_(nprocs=nb), dt=float(dt), strategy=strategy,
                name=f"fig06-split{nb}", meta={"split": nb}))
    return specs


@register_scenario(
    "fig09-policies",
    "Fig 9: the three policies across (744, 24) and (384, 384) splits on "
    "Rennes, strided 8 x 1 MB (meta: split, policy, dt).")
def fig09_policies(splits: Sequence[Tuple[int, int]] = ((744, 24),
                                                        (384, 384)),
                   dts: Sequence[float] = (-10.0, -5.0, 0.0, 5.0, 10.0,
                                           15.0, 20.0),
                   strategies: Sequence[Optional[str]] = (None, "fcfs",
                                                          "interrupt"),
                   ) -> List[ExperimentSpec]:
    pattern = Strided(block_size=1_000_000, nblocks=8)
    specs = []
    for na, nb in splits:
        a = WorkloadSpec(name="A", nprocs=na, pattern=pattern,
                         procs_per_node=24, grain="round")
        b = WorkloadSpec(name="B", nprocs=nb, pattern=pattern,
                         procs_per_node=24, grain="round")
        for strategy in strategies:
            policy = strategy if strategy is not None else "interfere"
            for dt in dts:
                specs.append(ExperimentSpec.pair(
                    grid5000_rennes(), a, b, dt=float(dt), strategy=strategy,
                    name=f"fig09-{nb}-{policy}",
                    meta={"split": nb, "policy": policy}))
    return specs


@register_scenario(
    "surveyor-four-files",
    "Fig 10/11 workload: on Surveyor, A (2048 cores) writes four 4 MB/proc "
    "files, B one — the dynamic-decision scenario (meta: dt).")
def surveyor_four_files(dts: Sequence[float] = (0.0,),
                        strategy: Optional[Any] = "dynamic",
                        grain: Optional[str] = "round",
                        ) -> List[ExperimentSpec]:
    pattern = Contiguous(block_size=4_000_000)
    a = WorkloadSpec(name="A", nprocs=2048, pattern=pattern, nfiles=4,
                     procs_per_node=4, scope="phase", grain=grain)
    b = a.with_(name="B", nfiles=1)
    return [ExperimentSpec.pair(surveyor(), a, b, dt=float(dt),
                                strategy=strategy, name="surveyor-4files")
            for dt in dts]


@register_scenario(
    "three-way-contention",
    "Three equal writers saturating a small file system — the N>2 "
    "queueing scenario (FCFS chains, preemption stacks).")
def three_way_contention(nprocs: int = 100,
                         offsets: Sequence[float] = (0.0, 0.1, 0.2),
                         strategy: Optional[Any] = None,
                         ) -> List[ExperimentSpec]:
    from ..platforms import PlatformConfig
    platform = PlatformConfig(name="three-way", nservers=2,
                              disk_bandwidth=500.0, per_core_bandwidth=10.0,
                              stripe_size=1000, latency=1e-6)
    workloads = tuple(
        WorkloadSpec(name=name, nprocs=nprocs,
                     pattern=Contiguous(block_size=1000),
                     start_time=float(offset), grain="round",
                     cb_buffer_size=2000)
        for name, offset in zip("abc", offsets))
    return [ExperimentSpec(platform=platform, workloads=workloads,
                           strategy=strategy, name="three-way-contention")]


# ---------------------------------------------------------------------------
# Large-scale trace scenarios (the incremental-kernel workloads)
# ---------------------------------------------------------------------------

def many_writers_platform(nservers: int = 32,
                          allocator: str = "incremental",
                          npartitions: int = 1) -> PlatformConfig:
    """A wide machine for many-application runs: per-server components.

    ``pool_servers=False`` keeps every data server a distinct endpoint, and
    the huge stripe unit places each file wholly on one (path-hashed)
    server — so applications writing different files form *disjoint*
    link/flow components, the regime the incremental allocator exploits.
    ``npartitions > 1`` splits the servers into that many independent file
    systems (the sharded-coordination scenarios' machines).
    """
    return PlatformConfig(
        name=f"many-writers-{nservers}s"
             + (f"-{npartitions}p" if npartitions > 1 else ""),
        nservers=nservers,
        disk_bandwidth=100e6,
        per_core_bandwidth=10e6,
        mpi_per_core_bandwidth=100e6,
        stripe_size=1 << 30,
        latency=1e-5,
        pool_servers=False,
        allocator=allocator,
        npartitions=npartitions,
        description=f"{nservers} independent servers, one file per server",
    )


#: Scale scenarios cap the arbiter's decision log: at 10^3+ applications a
#: full audit trail of every decision is memory, not information.  Figure
#: scenarios keep the unbounded default.
SCALE_DECISION_LOG_LIMIT = 10_000


@register_scenario(
    "many-writers",
    "Scale scenario: N staggered periodic writers (50-500) spread over a "
    "wide multi-server machine — the incremental kernel's home turf "
    "(meta: napps).")
def many_writers(napps: int = 200, nservers: int = 32,
                 strategy: Optional[Any] = None, phases: int = 3,
                 bytes_per_process: int = 4_000_000,
                 spread: float = 60.0, period: float = 30.0,
                 seed: int = 7, measure_alone: bool = False,
                 allocator: str = "incremental",
                 arbiter: Optional[Dict[str, Any]] = None
                 ) -> List[ExperimentSpec]:
    """Synthetic trace-flavoured mix: ``napps`` writers with random sizes
    (4-32 processes), staggered starts over ``spread`` seconds, ``phases``
    periodic I/O phases each.  Runs under any coordination strategy;
    ``arbiter`` overrides the coordination-layer options (e.g.
    ``{"shards": 1}``)."""
    if napps < 1:
        raise ValueError(f"napps must be >= 1, got {napps}")
    rng = ensure_rng(seed)
    platform = many_writers_platform(nservers, allocator=allocator)
    workloads = []
    for i in range(napps):
        nprocs = int(rng.choice([4, 8, 16, 32]))
        workloads.append(WorkloadSpec(
            name=f"app{i:03d}",
            nprocs=nprocs,
            pattern=Contiguous(block_size=bytes_per_process),
            iterations=phases,
            period=float(period),
            start_time=float(rng.uniform(0.0, spread)),
            grain="round",
        ))
    arbiter_opts = {"decision_log_limit": SCALE_DECISION_LOG_LIMIT}
    arbiter_opts.update(arbiter or {})
    return [ExperimentSpec(
        platform=platform, workloads=tuple(workloads), strategy=strategy,
        name="many-writers", measure_alone=measure_alone,
        meta={"napps": napps, "scenario": "many-writers"},
        arbiter=arbiter_opts,
    )]


@register_scenario(
    "service-many-writers",
    "Coordination-as-a-service load: the many-writers mix served over the "
    "wire — record the in-process coordination trace, replay it through N "
    "concurrent daemon clients (meta: napps, nclients).")
def service_many_writers(napps: int = 24, nservers: int = 8,
                         strategy: Optional[Any] = "fcfs", phases: int = 2,
                         nclients: int = 4,
                         bytes_per_process: int = 4_000_000,
                         spread: float = 60.0, period: float = 30.0,
                         seed: int = 7,
                         arbiter: Optional[Dict[str, Any]] = None
                         ) -> List[ExperimentSpec]:
    """The ``many-writers`` workload shaped for the coordination daemon
    (:mod:`repro.service`): same generator, same seed discipline, with the
    intended client fan-out riding in ``meta["service"]``.  A coordinated
    strategy is mandatory — an uncoordinated mix has no decisions to
    serve.  The default strategy avoids DELAY verdicts, the one action
    whose hold timers a recorded trace cannot replay bit-exactly."""
    if strategy is None:
        raise ValueError("service-many-writers needs a coordination "
                         "strategy (got None)")
    if nclients < 1:
        raise ValueError(f"nclients must be >= 1, got {nclients}")
    (spec,) = many_writers(
        napps=napps, nservers=nservers, strategy=strategy, phases=phases,
        bytes_per_process=bytes_per_process, spread=spread, period=period,
        seed=seed, measure_alone=False, arbiter=arbiter)
    meta = dict(spec.meta)
    meta.update({"scenario": "service-many-writers",
                 "service": {"nclients": int(nclients)}})
    return [spec.with_(name="service-many-writers", meta=meta)]


@register_scenario(
    "swf-replay",
    "Trace-driven scale scenario: a synthetic Intrepid-like SWF window "
    "replayed as 50-500 concurrent periodic writers under any strategy "
    "(meta: napps, window).")
def swf_replay(napps: int = 100, hours: float = 6.0,
               strategy: Optional[Any] = None, core_scale: int = 512,
               bytes_per_process: int = 4_000_000, phases_per_job: int = 2,
               seed: int = 2014, measure_alone: bool = False,
               platform: Optional[PlatformConfig] = None,
               sampled_io: bool = True,
               arbiter: Optional[Dict[str, Any]] = None,
               ) -> List[ExperimentSpec]:
    """Generate a dense synthetic SWF trace, take an ``hours``-long window
    and replay the first ``napps`` resident jobs (see
    :func:`repro.experiments.replay.replay_spec`).

    ``sampled_io`` (default True) draws each job's access pattern and
    per-process volume from :class:`~repro.traces.JobIOModel`'s Fig
    1-style distributions instead of the old one-uniform-contiguous-write
    placeholder; pass False to recover the uniform population."""
    if napps < 1:
        raise ValueError(f"napps must be >= 1, got {napps}")
    if hours <= 0:
        raise ValueError(f"hours must be > 0, got {hours}")
    # Arrival rate sized so the window holds ~1.3x the requested job count
    # (dispatch and validity filtering thin the population a little).
    rate = max(14.0, 1.3 * napps / hours)
    model = IntrepidModel(duration_days=max(1.0, 2.0 * hours / 24.0),
                          jobs_per_hour=rate)
    trace = generate_intrepid_like(model=model, seed=seed)
    io_model = (JobIOModel(median_bytes_per_process=float(bytes_per_process))
                if sampled_io else None)
    spec = replay_spec(
        platform if platform is not None else grid5000_rennes(),
        trace, window=(0.0, hours * 3600.0), strategy=strategy,
        core_scale=core_scale, bytes_per_process=bytes_per_process,
        phases_per_job=phases_per_job, max_jobs=napps,
        measure_alone=measure_alone, io_model=io_model, io_seed=seed,
        name="swf-replay",
    )
    spec.meta["scenario"] = "swf-replay"
    arbiter_opts = {"decision_log_limit": SCALE_DECISION_LOG_LIMIT}
    arbiter_opts.update(arbiter or {})
    return [spec.with_(arbiter=arbiter_opts)]


@register_scenario(
    "checkpoint-waves",
    "High-churn kernel scenario: cohorts of writers checkpointing in "
    "synchronized waves over a wide machine, with span-server bridge "
    "apps that merge and split link/flow components "
    "(meta: napps, ncohorts, nbridges).")
def checkpoint_waves(napps: int = 120, nservers: int = 16,
                     ncohorts: int = 4, strategy: Optional[Any] = None,
                     phases: int = 3, bytes_per_process: int = 2_000_000,
                     period: float = 30.0, jitter: float = 0.5,
                     bridge_every: int = 5, seed: int = 13,
                     allocator: str = "incremental",
                     arbiter: Optional[Dict[str, Any]] = None
                     ) -> List[ExperimentSpec]:
    """Synchronized bursty cohorts — the bottleneck-incremental kernel's
    stress case.  Application ``i`` belongs to cohort ``i % ncohorts``;
    every cohort checkpoints together (same period, wave-staggered starts
    plus a small jitter), so each wave floods its servers with near-
    simultaneous arrivals and drains them with near-simultaneous
    completions — exactly the churn the cached bottleneck orders absorb.
    Every ``bridge_every``-th application writes two files (hashing onto
    two servers), bridging otherwise disjoint per-server components so
    the component registry exercises union on the wave's rise and split
    on its fall."""
    if napps < 1:
        raise ValueError(f"napps must be >= 1, got {napps}")
    if ncohorts < 1:
        raise ValueError(f"ncohorts must be >= 1, got {ncohorts}")
    rng = ensure_rng(seed)
    platform = many_writers_platform(nservers, allocator=allocator)
    workloads = []
    nbridges = 0
    wave_gap = period / ncohorts
    for i in range(napps):
        cohort = i % ncohorts
        nprocs = int(rng.choice([4, 8, 16]))
        nfiles = 1
        if bridge_every > 0 and i % bridge_every == 0:
            nfiles = 2
            nbridges += 1
        workloads.append(WorkloadSpec(
            name=f"app{i:03d}",
            nprocs=nprocs,
            pattern=Contiguous(block_size=bytes_per_process),
            nfiles=nfiles,
            iterations=phases,
            period=float(period),
            start_time=float(cohort * wave_gap + rng.uniform(0.0, jitter)),
            grain="round",
        ))
    arbiter_opts = {"decision_log_limit": SCALE_DECISION_LOG_LIMIT}
    arbiter_opts.update(arbiter or {})
    return [ExperimentSpec(
        platform=platform, workloads=tuple(workloads), strategy=strategy,
        name="checkpoint-waves", measure_alone=False,
        meta={"napps": napps, "ncohorts": ncohorts, "nbridges": nbridges,
              "scenario": "checkpoint-waves"},
        arbiter=arbiter_opts,
    )]


@register_scenario(
    "read-write-mix",
    "High-churn kernel scenario: checkpoint/restart-flavoured mix — half "
    "the applications alternate write and read-back phases while the "
    "rest write continuously (meta: napps, nreaders).")
def read_write_mix(napps: int = 80, nservers: int = 16,
                   strategy: Optional[Any] = None, phases: int = 4,
                   bytes_per_process: int = 2_000_000,
                   spread: float = 30.0, period: float = 20.0,
                   read_every: int = 2, seed: int = 17,
                   allocator: str = "incremental",
                   arbiter: Optional[Dict[str, Any]] = None
                   ) -> List[ExperimentSpec]:
    """Every ``read_every``-th application runs ``operation='readwrite'``
    (even iterations write a checkpoint, odd iterations read it back), so
    server ingest and drain flows interleave on the same components and
    the perturbation mix differs from the pure-writer scenarios.  Needs
    ``phases >= 2`` for any read phase to happen."""
    if napps < 1:
        raise ValueError(f"napps must be >= 1, got {napps}")
    rng = ensure_rng(seed)
    platform = many_writers_platform(nservers, allocator=allocator)
    workloads = []
    nreaders = 0
    for i in range(napps):
        nprocs = int(rng.choice([4, 8, 16, 32]))
        operation = "write"
        if read_every > 0 and i % read_every == 0:
            operation = "readwrite"
            nreaders += 1
        workloads.append(WorkloadSpec(
            name=f"app{i:03d}",
            nprocs=nprocs,
            pattern=Contiguous(block_size=bytes_per_process),
            iterations=phases,
            period=float(period),
            start_time=float(rng.uniform(0.0, spread)),
            grain="round",
            operation=operation,
        ))
    arbiter_opts = {"decision_log_limit": SCALE_DECISION_LOG_LIMIT}
    arbiter_opts.update(arbiter or {})
    return [ExperimentSpec(
        platform=platform, workloads=tuple(workloads), strategy=strategy,
        name="read-write-mix", measure_alone=False,
        meta={"napps": napps, "nreaders": nreaders,
              "scenario": "read-write-mix"},
        arbiter=arbiter_opts,
    )]


# ---------------------------------------------------------------------------
# Sharded-coordination scenarios (multi-partition platforms)
# ---------------------------------------------------------------------------

@register_scenario(
    "sharded-writers",
    "Sharded coordination scale scenario: N staggered writers pinned "
    "round-robin onto a multi-partition machine, one arbiter shard per "
    "partition (arbiter={'shards': 1} for the single-arbiter baseline) "
    "(meta: napps, npartitions, shards).")
def sharded_writers(napps: int = 200, npartitions: int = 8,
                    nservers: int = 32, strategy: Optional[Any] = "fcfs",
                    shards: Optional[int] = None, phases: int = 3,
                    bytes_per_process: int = 4_000_000,
                    spread: float = 60.0, period: float = 30.0,
                    seed: int = 7, measure_alone: bool = False,
                    arbiter: Optional[Dict[str, Any]] = None
                    ) -> List[ExperimentSpec]:
    """The many-writers mix on a partitioned machine: application ``i`` is
    pinned (data *and* coordination) to partition ``i % npartitions``, so
    with one shard per partition the decision load divides evenly and no
    access ever crosses shards.  ``shards=1`` runs the identical workload
    under a single machine-wide arbiter — the scale-out comparison pair
    ``benchmarks/test_scale_shards.py`` measures."""
    if napps < 1:
        raise ValueError(f"napps must be >= 1, got {napps}")
    if npartitions < 1:
        raise ValueError(f"npartitions must be >= 1, got {npartitions}")
    nshards = npartitions if shards is None else int(shards)
    rng = ensure_rng(seed)
    platform = many_writers_platform(nservers, npartitions=npartitions)
    workloads = []
    for i in range(napps):
        nprocs = int(rng.choice([4, 8, 16, 32]))
        workloads.append(WorkloadSpec(
            name=f"app{i:03d}",
            nprocs=nprocs,
            pattern=Contiguous(block_size=bytes_per_process),
            iterations=phases,
            period=float(period),
            start_time=float(rng.uniform(0.0, spread)),
            grain="round",
            partitions=(i % npartitions,),
        ))
    arbiter_opts = {"decision_log_limit": SCALE_DECISION_LOG_LIMIT,
                    "shards": nshards}
    arbiter_opts.update(arbiter or {})
    return [ExperimentSpec(
        platform=platform, workloads=tuple(workloads), strategy=strategy,
        name="sharded-writers", measure_alone=measure_alone,
        meta={"napps": napps, "npartitions": npartitions,
              "shards": arbiter_opts.get("shards"),
              "scenario": "sharded-writers"},
        arbiter=arbiter_opts,
    )]


@register_scenario(
    "cross-partition",
    "Cross-shard protocol scenario: pinned writers plus span-partition "
    "applications whose two files live on adjacent partitions, exercising "
    "the ordered-lock two-phase grant (meta: napps, npartitions, nspan).")
def cross_partition(napps: int = 24, npartitions: int = 4,
                    nservers: int = 16, strategy: Optional[Any] = "fcfs",
                    span_every: int = 3, phases: int = 2,
                    bytes_per_process: int = 2_000_000,
                    spread: float = 20.0, period: float = 15.0,
                    seed: int = 11, measure_alone: bool = False,
                    arbiter: Optional[Dict[str, Any]] = None
                    ) -> List[ExperimentSpec]:
    """Every ``span_every``-th application writes two files on *adjacent*
    partitions (``partitions=(p, p+1)``, ``nfiles=2``) and must therefore
    hold grants on both owning shards at once; the rest stay pinned.  The
    mix keeps every shard busy while span accesses thread the ordered
    two-phase grant through them."""
    if napps < 1:
        raise ValueError(f"napps must be >= 1, got {napps}")
    if npartitions < 2:
        raise ValueError("cross-partition needs npartitions >= 2, "
                         f"got {npartitions}")
    rng = ensure_rng(seed)
    platform = many_writers_platform(nservers, npartitions=npartitions)
    workloads = []
    nspan = 0
    for i in range(napps):
        nprocs = int(rng.choice([4, 8, 16]))
        start = float(rng.uniform(0.0, spread))
        p = i % npartitions
        if span_every > 0 and i % span_every == 0:
            nspan += 1
            partitions = (p, (p + 1) % npartitions)
            nfiles = 2
        else:
            partitions = (p,)
            nfiles = 1
        workloads.append(WorkloadSpec(
            name=f"app{i:03d}",
            nprocs=nprocs,
            pattern=Contiguous(block_size=bytes_per_process),
            nfiles=nfiles,
            iterations=phases,
            period=float(period),
            start_time=start,
            grain="round",
            partitions=partitions,
        ))
    arbiter_opts = {"decision_log_limit": SCALE_DECISION_LOG_LIMIT}
    arbiter_opts.update(arbiter or {})
    return [ExperimentSpec(
        platform=platform, workloads=tuple(workloads), strategy=strategy,
        name="cross-partition", measure_alone=measure_alone,
        meta={"napps": napps, "npartitions": npartitions, "nspan": nspan,
              "scenario": "cross-partition"},
        arbiter=arbiter_opts,
    )]

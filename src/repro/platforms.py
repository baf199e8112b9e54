"""Simulated machine configurations ("platforms").

A :class:`Platform` bundles a simulator, a fabric, storage servers, and a
parallel file system, and hands out client endpoints for applications.  The
presets model the paper's three testbeds.  Calibration note — the paper
never publishes raw hardware bandwidths, so the presets are fitted to the
*measured anchors* the paper does report:

* ``grid5000_nancy`` (Figs 2-4): 35 PVFS servers; two 336-process apps
  writing 16 MB/process take ~8.5 s alone (Fig 2), and an 8-core app loses
  ~6x throughput against a 336-core app (Fig 4).  Fitting both gives
  ~18 MB/s per server and ~11 MB/s per process (per-process share of the
  client side).  The Fig 3 variant enables the kernel write-back cache.
* ``grid5000_rennes`` (Figs 6, 9): 12 OrangeFS servers, caching disabled
  (as the authors did); per-process bandwidth is set so a 24-process app
  facing a 744-process app peaks at an interference factor near the
  paper's ~14 (ratio aggregate/per-core ≈ 55).
* ``surveyor`` (Figs 7, 8, 10-12): 4 PVFS servers; 2048-core apps saturate
  the file system (strong interference, Fig 7a) while 1024-core apps
  demand only ~0.8x of it (weak interference, Fig 7b) — per-core bandwidth
  4 MB/s against a 5 GB/s aggregate reproduces both regimes and the ~13 s
  standalone write of Fig 7a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .network import Fabric
from .perf import PerfCounters
from .simcore import FlowNetwork, SimulationError, Simulator
from .storage import Disk, ParallelFileSystem, PartitionedFileSystem, StorageServer
from .storage.partitioned import default_partition

__all__ = ["PlatformConfig", "Platform", "surveyor", "grid5000_nancy",
           "grid5000_rennes"]

#: A workload's declared partition placement (see Platform.app_partitions).
_OptionalPartitions = Optional[Sequence[int]]


@dataclass(frozen=True)
class PlatformConfig:
    """Everything needed to instantiate a simulated machine."""

    name: str
    nservers: int
    disk_bandwidth: float            #: per-server drain rate, B/s
    per_core_bandwidth: float        #: client-side bandwidth per process, B/s
    server_link_bandwidth: float = math.inf  #: fabric edge to each server, B/s
    cache_bandwidth: Optional[float] = None  #: per-server cache speed (None = off)
    cache_capacity: Optional[float] = None   #: per-server dirty-pool bytes
    stripe_size: int = 64 * 1024
    latency: float = 50e-6           #: one-way message latency, s
    scheduler: str = "shared"        #: server admission policy
    seek_penalty: float = 0.0
    #: Per-process MPI (intra-application) bandwidth used by collective cost
    #: models, B/s.  ``None`` means equal to ``per_core_bandwidth`` — the
    #: BG/P regime, where the torus and the I/O path are comparable (hence
    #: Fig 8b's ~40%% communication phases).  Commodity IB clusters with a
    #: small file system (the Grid'5000 presets) set this ~10x higher: the
    #: fabric is far faster than the 18 MB/s-per-server PVFS deployment.
    mpi_per_core_bandwidth: Optional[float] = None
    #: Model the ``nservers`` data servers as one pooled server with their
    #: aggregate bandwidth.  Under uniform striping the per-server flows of
    #: an application are symmetric, so pooling is physics-preserving while
    #: cutting the live flow count (and simulation time) by ``nservers``x.
    #: Disable for experiments that need per-server behaviour (scheduler
    #: ablations, non-uniform access).
    pool_servers: bool = True
    #: Bandwidth allocator: ``"incremental"`` (default — dirty-component
    #: reallocation with cached bottleneck orders and the per-component
    #: wake-heap pool, see :mod:`repro.simcore.fairshare`),
    #: ``"vectorized"`` (structure-of-arrays components priced with numpy
    #: array operations, see :mod:`repro.simcore.fairshare_vec` — the
    #: 10^5-10^6-flow regime; completion ordering identical to
    #: ``"incremental"``, rates exact where the scan order is
    #: deterministic and ulp-bounded otherwise),
    #: ``"incremental-flat"`` (the PR-2 regime: dirty-component refills
    #: with from-scratch filling and one machine-wide heap — the scale
    #: benchmark's baseline) or ``"global"`` (the retained reference
    #: oracle that re-prices every flow on every change; identical rates,
    #: slower).
    allocator: str = "incremental"
    #: Fill-cache cutover for the ``"incremental"`` allocator: ``None``
    #: (default) learns it per component from observed replay hit rates;
    #: an ``int`` pins the historical fixed flow-count threshold (``8``
    #: reproduces the pre-adaptive behaviour).  Rates are bit-identical
    #: under any setting — the policy only picks how refills compute.
    fill_cache_min_flows: Optional[int] = None
    #: File-system partitions: the ``nservers`` data servers are split into
    #: this many disjoint groups, each running its own
    #: :class:`~repro.storage.ParallelFileSystem` (sizes as even as
    #: possible, partition-major server order).  ``1`` (the default, and
    #: every paper testbed) keeps the single machine-wide file system.
    #: Partitions are what arbiter shards own — see
    #: :mod:`repro.core.sharding`.
    npartitions: int = 1
    description: str = ""

    @property
    def mpi_bandwidth_per_core(self) -> float:
        """Resolved per-process MPI bandwidth (see field docs)."""
        if self.mpi_per_core_bandwidth is not None:
            return self.mpi_per_core_bandwidth
        return self.per_core_bandwidth

    @property
    def server_ingest_bandwidth(self) -> float:
        """Peak ingest of one data server (cache speed when enabled,
        bounded by its fabric edge), B/s."""
        per_server = self.disk_bandwidth if self.cache_bandwidth is None \
            else self.cache_bandwidth
        return min(per_server, self.server_link_bandwidth)

    @property
    def aggregate_bandwidth(self) -> float:
        """Peak file-system ingest with all servers streaming, B/s."""
        return self.nservers * self.server_ingest_bandwidth

    @property
    def aggregate_disk_bandwidth(self) -> float:
        """Sustained (post-cache) drain bandwidth, B/s."""
        return self.nservers * min(self.disk_bandwidth, self.server_link_bandwidth)

    @property
    def partition_sizes(self) -> Tuple[int, ...]:
        """Data servers per partition (as even as possible, extras first)."""
        base, extra = divmod(self.nservers, self.npartitions)
        return tuple(base + (1 if p < extra else 0)
                     for p in range(self.npartitions))

    def partition_bandwidth(self, partition: int) -> float:
        """Peak ingest of one partition's server group, B/s."""
        return self.partition_sizes[partition] * self.server_ingest_bandwidth

    def with_(self, **changes) -> "PlatformConfig":
        """A modified copy (e.g. ``cfg.with_(scheduler='fifo')``)."""
        return replace(self, **changes)


class Platform:
    """An instantiated machine: simulator + fabric + PFS + client registry."""

    def __init__(self, config: PlatformConfig):
        if config.allocator not in ("incremental", "vectorized",
                                    "incremental-flat", "global"):
            raise SimulationError(
                f"allocator must be 'incremental', 'vectorized', "
                f"'incremental-flat' or 'global', got {config.allocator!r}"
            )
        if config.npartitions < 1:
            raise SimulationError(
                f"npartitions must be >= 1, got {config.npartitions}")
        if config.npartitions > config.nservers:
            raise SimulationError(
                f"npartitions ({config.npartitions}) cannot exceed "
                f"nservers ({config.nservers})")
        self.config = config
        self.perf = PerfCounters()
        self.sim = Simulator(perf=self.perf)
        self.net = FlowNetwork(
            self.sim,
            incremental=(config.allocator != "global"),
            perf=self.perf,
            fill_cache=(config.allocator == "incremental"),
            heap_pool=(config.allocator == "incremental"),
            vectorized=(config.allocator == "vectorized"),
            fill_cache_min_flows=config.fill_cache_min_flows,
        )
        self.fabric = Fabric(self.sim, self.net, latency=config.latency)
        self.fabric.add_switch("switch")
        self.servers = []
        #: One :class:`~repro.storage.ParallelFileSystem` per partition
        #: (disjoint server groups).  With one partition this is the whole
        #: machine and ``self.pfs`` *is* ``partitions[0]``.
        self.partitions: List[ParallelFileSystem] = []
        index = 0
        for psize in config.partition_sizes:
            group = []
            n_physical = 1 if config.pool_servers else psize
            scale = psize if config.pool_servers else 1
            for _ in range(n_physical):
                server = StorageServer(
                    self.sim, self.net, self.fabric, name=f"server{index}",
                    disk=Disk(scale * config.disk_bandwidth,
                              config.seek_penalty),
                    cache_bandwidth=(None if config.cache_bandwidth is None
                                     else scale * config.cache_bandwidth),
                    cache_capacity=(None if config.cache_capacity is None
                                    else scale * config.cache_capacity),
                    scheduler=config.scheduler,
                )
                index += 1
                link_bw = config.server_link_bandwidth
                if math.isinf(link_bw):
                    # The fabric needs a finite edge; make it non-binding.
                    link_bw = 1e3 * max(
                        config.disk_bandwidth, config.cache_bandwidth or 0.0
                    )
                self.fabric.add_edge("switch", server.name, scale * link_bw)
                group.append(server)
                self.servers.append(server)
            self.partitions.append(ParallelFileSystem(
                self.sim, self.fabric, group,
                stripe_size=config.stripe_size))
        #: The client-facing file system: the partition itself on
        #: single-partition machines (bit-identical to the historical
        #: layout), a path-routing facade across partitions otherwise.
        self.pfs: Union[ParallelFileSystem, PartitionedFileSystem]
        if config.npartitions == 1:
            self.pfs = self.partitions[0]
        else:
            self.pfs = PartitionedFileSystem(self.sim, self.partitions)
        self._clients: Dict[str, int] = {}

    # -- clients ---------------------------------------------------------------
    def add_client(self, name: str, nprocs: int) -> str:
        """Register an application's compute allocation as a fabric endpoint.

        The endpoint's uplink carries the aggregate client-side bandwidth of
        ``nprocs`` processes.  Returns the endpoint name (== ``name``).
        """
        if name in self._clients:
            raise SimulationError(f"client {name!r} already registered")
        if nprocs < 1:
            raise SimulationError(f"nprocs must be >= 1, got {nprocs}")
        self.fabric.add_endpoint(name)
        self.fabric.add_edge(name, "switch",
                             nprocs * self.config.per_core_bandwidth)
        self._clients[name] = nprocs
        return name

    def client_bandwidth(self, name: str) -> float:
        """Registered aggregate uplink bandwidth of a client, B/s."""
        return self._clients[name] * self.config.per_core_bandwidth

    # -- partitions --------------------------------------------------------
    @property
    def npartitions(self) -> int:
        return self.config.npartitions

    def app_partitions(self, name: str,
                       requested: _OptionalPartitions = None
                       ) -> Tuple[int, ...]:
        """The partition footprint of an application's accesses.

        ``requested`` is the workload's declared placement (a sequence of
        partition indices; file *f* of a phase lands on entry ``f % len``);
        ``None`` pins the whole application to its stable default partition
        — the same hash rule :class:`~repro.storage.PartitionedFileSystem`
        routes unpinned paths by, so coordination routing and data
        placement agree by construction.
        """
        nparts = self.config.npartitions
        if requested:
            return tuple(sorted({int(p) % nparts for p in requested}))
        return (default_partition(name, nparts),)

    def file_partition(self, name: str, findex: int,
                       requested: _OptionalPartitions = None) -> int:
        """The partition holding file ``findex`` of one of ``name``'s phases."""
        nparts = self.config.npartitions
        if requested:
            return int(requested[findex % len(requested)]) % nparts
        return default_partition(name, nparts)

    def pin_path(self, path: str, partition: int) -> None:
        """Pin a file path to a partition (no-op on unpartitioned machines)."""
        if self.config.npartitions > 1:
            self.pfs.pin(path, partition)

    # -- analytics ---------------------------------------------------------------
    def standalone_write_time(self, nprocs: int, total_bytes: float) -> float:
        """Closed-form time for an uncontended contiguous write.

        The binding constraint is either the client uplink or the aggregate
        file-system ingest; latency is ignored (negligible at these sizes).
        Used by the expected-interference model and by CALCioM's estimates.
        """
        bw = min(nprocs * self.config.per_core_bandwidth,
                 self.config.aggregate_bandwidth)
        return total_bytes / bw

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Platform {self.config.name!r} servers={self.config.nservers}>"


# ---------------------------------------------------------------------------
# Presets (see module docstring for the calibration anchors)
# ---------------------------------------------------------------------------

_MB = 1e6


def surveyor(**overrides) -> PlatformConfig:
    """Argonne BG/P Surveyor: 4096 cores, 4-server PVFS2."""
    cfg = PlatformConfig(
        name="surveyor",
        nservers=4,
        disk_bandwidth=1250 * _MB,
        per_core_bandwidth=4 * _MB,
        stripe_size=4 * 1024 * 1024,
        latency=30e-6,
        description="BlueGene/P rack, 4-node PVFS2, 2048-core apps saturate",
    )
    return cfg.with_(**overrides) if overrides else cfg


def grid5000_nancy(cache: bool = False, **overrides) -> PlatformConfig:
    """Grid'5000 Nancy: 35 PVFS servers over InfiniBand (Figs 2-4).

    ``cache=True`` enables the kernel write-back cache configuration of
    Fig 3 (the authors otherwise disabled caching).
    """
    cfg = PlatformConfig(
        name="grid5000-nancy" + ("-cached" if cache else ""),
        nservers=35,
        # The cached (Fig 3) variant models a slow ext3 local-disk backend
        # behind a memory-speed kernel cache: the ~7x cache/disk speed ratio
        # bounds the collision collapse, and the dirty pool is sized so one
        # application's periodic write fits while two colliding ones
        # overflow it (and drain within a period, so clean iterations
        # recover — the paper's alternating pattern).
        disk_bandwidth=8.15 * _MB if cache else 18 * _MB,
        per_core_bandwidth=11 * _MB,
        cache_bandwidth=57 * _MB if cache else None,
        cache_capacity=37 * _MB if cache else None,
        mpi_per_core_bandwidth=110 * _MB,
        stripe_size=64 * 1024,
        latency=20e-6,
        description="35-node PVFS on IB; 336-proc writers; Fig 2-4 anchor",
    )
    return cfg.with_(**overrides) if overrides else cfg


def grid5000_rennes(**overrides) -> PlatformConfig:
    """Grid'5000 Rennes: 12-server OrangeFS, caching disabled (Figs 6, 9)."""
    cfg = PlatformConfig(
        name="grid5000-rennes",
        nservers=12,
        disk_bandwidth=50 * _MB,
        per_core_bandwidth=10.9 * _MB,
        mpi_per_core_bandwidth=109 * _MB,
        stripe_size=64 * 1024,
        latency=20e-6,
        description="parapluie/parapide OrangeFS; 768 cores split A/B",
    )
    return cfg.with_(**overrides) if overrides else cfg

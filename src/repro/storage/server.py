"""A storage server: ingest pipe, optional write-back cache, disk, scheduler.

The server owns an internal *ingest link* appended to the path of every
flow that writes to it.  Its capacity is:

* ``disk.effective_rate(active streams)`` when the cache is disabled (the
  Grid'5000 configuration in the paper — "caching disabled in order to
  avoid the huge performance drop observed in Section II"); or
* managed by :class:`~repro.storage.cache.WriteBackCache` when enabled
  (the Figure 3 configuration).

Reads drain from the disk through a separate egress link so write/read
directions don't contend artificially on full-duplex hardware.
"""

from __future__ import annotations

from typing import Optional

from ..network import Fabric
from ..simcore import Event, FluidLink, FlowNetwork, Simulator
from .cache import WriteBackCache
from .disk import Disk
from .requests import IORequest
from .scheduler import ServerScheduler, make_scheduler

__all__ = ["StorageServer"]


class StorageServer:
    """One PVFS/OrangeFS-style data server.

    Parameters
    ----------
    sim, net, fabric:
        Kernel objects.  The server registers itself as a fabric endpoint
        named ``name``; the platform builder is responsible for wiring an
        edge from the fabric core to that endpoint.
    disk:
        The drain-side device model.
    cache_bandwidth, cache_capacity:
        Enable a write-back cache with these parameters (both must be given).
    scheduler:
        Admission policy — name, class, or instance (see
        :mod:`repro.storage.scheduler`).
    """

    def __init__(self, sim: Simulator, net: FlowNetwork, fabric: Fabric,
                 name: str, disk: Disk,
                 cache_bandwidth: Optional[float] = None,
                 cache_capacity: Optional[float] = None,
                 scheduler="shared"):
        self.sim = sim
        self.net = net
        self.fabric = fabric
        self.name = name
        self.disk = disk
        fabric.add_endpoint(name)
        self.ingest_link = FluidLink(disk.bandwidth, name=f"{name}.ingest")
        self.egress_link = FluidLink(disk.bandwidth, name=f"{name}.egress")
        #: The links a transfer crosses past the fabric, per direction.
        self._ingest_path = (self.ingest_link,)
        self._egress_path = (self.egress_link,)
        self.cache: Optional[WriteBackCache] = None
        if (cache_bandwidth is None) != (cache_capacity is None):
            raise ValueError(
                "cache_bandwidth and cache_capacity must be given together"
            )
        if cache_bandwidth is not None:
            self.cache = WriteBackCache(
                sim, net, self.ingest_link,
                cache_bandwidth=cache_bandwidth,
                drain_bandwidth=disk.bandwidth,
                capacity=cache_capacity,
            )
        elif disk.seek_penalty > 0:
            net.add_observer(self._update_seek_penalty)
        self.scheduler: ServerScheduler = make_scheduler(scheduler)
        self.scheduler.bind(sim, self._launch)
        self.bytes_written = 0.0
        self.bytes_read = 0.0
        #: Shared :class:`~repro.perf.PerfCounters` (from the flow network);
        #: the request count is folded into it when it is read.
        self.perf = net.perf
        self._n_io_requests = 0
        if self.perf is not None:
            self.perf.attach(self, ("io_requests",))

    # -- client interface -----------------------------------------------------
    def submit(self, request: IORequest) -> Event:
        """Queue a request under the admission policy; event fires when done."""
        request.submitted = self.sim._now
        self._n_io_requests += 1
        return self.scheduler.submit(request)

    # -- internals ---------------------------------------------------------------
    def _launch(self, request: IORequest) -> Event:
        """Start the fluid transfer for a request (called by the scheduler)."""
        size = request.size
        if request.kind == "write":
            self.bytes_written += size
            return self.fabric.transfer(
                request.client, self.name, size, request.weight, request.cap,
                self._ingest_path, request.app)
        self.bytes_read += size
        return self.fabric.transfer(
            self.name, request.client, size, request.weight, request.cap,
            self._egress_path, request.app)

    def _update_seek_penalty(self, time: float, flows) -> None:
        """Degrade the ingest pipe as distinct applications interleave."""
        # The per-link index makes this O(flows on this server) rather than
        # a scan of every flow in the machine.
        apps = {f.label for f in self.net.link_flows(self.ingest_link)}
        self.ingest_link.set_capacity(
            self.disk.effective_rate(max(1, len(apps)))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "cached" if self.cache else "direct"
        return f"<StorageServer {self.name!r} {mode} {self.disk!r}>"

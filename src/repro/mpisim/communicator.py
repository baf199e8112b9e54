"""Simulated MPI communicators with analytic collective cost models.

An application's processes are modelled as one :class:`Communicator` rather
than N kernel processes: the quantities the reproduction needs (how long a
barrier, gather, or collective-buffering shuffle takes; how much
bandwidth the group wields) are closed-form functions of the process count
and link speeds, so simulating each rank would add cost without adding
fidelity.

Cost models are the standard alpha-beta (latency-bandwidth) forms used in
the MPI literature: log-tree latency terms plus bandwidth terms on the
group's aggregate injection capacity.
"""

from __future__ import annotations

import math
from typing import Optional

from ..simcore import Simulator, Timeout

__all__ = ["Communicator"]


class Communicator:
    """A group of ``nprocs`` ranks with collective time models.

    Parameters
    ----------
    sim:
        The simulator (collectives are timeouts — intra-application traffic
        does not cross the storage fabric, which is precisely why the
        paper's Fig 8b finds communication phases "almost not impacted" by
        file-system interference).
    nprocs:
        Group size.
    alpha:
        Per-message latency, seconds.
    per_proc_bandwidth:
        Injection bandwidth per process, B/s.
    """

    def __init__(self, sim: Simulator, nprocs: int, alpha: float = 20e-6,
                 per_proc_bandwidth: float = 1e9, name: str = "comm"):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.sim = sim
        self.nprocs = int(nprocs)
        self.alpha = float(alpha)
        self.per_proc_bandwidth = float(per_proc_bandwidth)
        self.name = name
        #: ceil(log2 P) tree depth (at least 1 for P > 1, 0 for P == 1).
        self._log2p = (max(1, math.ceil(math.log2(self.nprocs)))
                       if self.nprocs > 1 else 0)

    # -- size/rank bookkeeping --------------------------------------------------
    @property
    def size(self) -> int:
        return self.nprocs

    @property
    def aggregate_bandwidth(self) -> float:
        """Total injection bandwidth of the group, B/s."""
        return self.nprocs * self.per_proc_bandwidth

    # -- collective cost models (seconds) -------------------------------------
    def barrier_time(self) -> float:
        """Dissemination barrier: ceil(log2 P) rounds of latency."""
        return self._log2p * self.alpha

    def gather_time(self, nbytes_per_proc: float) -> float:
        """Binomial gather; bandwidth term dominated by the root's link."""
        total = nbytes_per_proc * max(0, self.nprocs - 1)
        return self._log2p * self.alpha + total / self.per_proc_bandwidth

    def alltoall_time(self, nbytes_total: float) -> float:
        """Personalized all-to-all moving ``nbytes_total`` across the group.

        The bisection-limited fluid form: the group moves the data at its
        aggregate injection bandwidth, plus one latency per of ~P messages
        pipelined in log P phases.
        """
        bw = self.aggregate_bandwidth
        return self._log2p * self.alpha + nbytes_total / bw

    def shuffle_time(self, nbytes_total: float, fraction_remote: float = 1.0) -> float:
        """Two-phase-I/O data exchange: procs -> aggregators.

        ``fraction_remote`` is the share of bytes that actually change
        process (1 for a fully strided pattern, ~0 for contiguous views
        where aggregators already own their file ranges).
        """
        if not 0.0 <= fraction_remote <= 1.0:
            raise ValueError("fraction_remote must be in [0, 1]")
        return self.alltoall_time(nbytes_total * fraction_remote)

    # -- event helpers ----------------------------------------------------------
    def barrier(self) -> Timeout:
        """Event covering one barrier."""
        return self.sim.timeout(self.barrier_time())

    def shuffle(self, nbytes_total: float, fraction_remote: float = 1.0) -> Timeout:
        return Timeout(self.sim, self.shuffle_time(nbytes_total, fraction_remote))

    def split(self, nprocs: int, name: Optional[str] = None) -> "Communicator":
        """A sub-communicator of ``nprocs`` ranks (MPI_Comm_split analogue)."""
        if not 1 <= nprocs <= self.nprocs:
            raise ValueError(
                f"sub-communicator size {nprocs} out of range 1..{self.nprocs}"
            )
        return Communicator(self.sim, nprocs, alpha=self.alpha,
                            per_proc_bandwidth=self.per_proc_bandwidth,
                            name=name or f"{self.name}.split")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator {self.name!r} P={self.nprocs}>"

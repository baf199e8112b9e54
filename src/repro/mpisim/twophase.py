"""Two-phase I/O (collective buffering) planning.

ROMIO's generalized two-phase algorithm: a subset of processes (the
*aggregators*, ``cb_nodes`` of them) each own a contiguous file domain and a
staging buffer of ``cb_buffer_size`` bytes.  A collective write proceeds in
rounds; per round each aggregator (1) receives the pieces of its file domain
from their owners (the *communication phase*) and (2) issues one large
contiguous write (the *write phase*).

The paper leans on this structure twice:

* Fig 8 shows that under interference only the write phase degrades — the
  shuffle runs on the compute fabric; and
* round boundaries are where CALCioM's ``Inform``/``Release`` hooks live in
  the authors' ADIO implementation, giving the fine interruption grain of
  Fig 10.

:func:`plan_collective_write` reduces a (pattern, nprocs, cb config) triple
to the list of rounds the ADIO layer will execute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .datatypes import AccessPattern

__all__ = ["CollectiveRound", "CollectivePlan", "plan_collective_write"]


@dataclass(frozen=True)
class CollectiveRound:
    """One round of collective buffering."""

    index: int            #: round number, 0-based
    offset: int           #: file offset of this round's write
    write_bytes: int      #: bytes written in the write phase
    shuffle_bytes: int    #: bytes exchanged in the communication phase


@dataclass(frozen=True)
class CollectivePlan:
    """The full round schedule for one collective write.

    Immutable (``rounds`` is a tuple), so one plan can be shared by every
    operation that asks for it.
    """

    rounds: Tuple[CollectiveRound, ...]
    naggregators: int
    cb_buffer_size: int
    total_bytes: int

    @property
    def nrounds(self) -> int:
        return len(self.rounds)


def plan_collective_write(pattern: AccessPattern, nprocs: int,
                          cb_buffer_size: int = 4 * 1024 * 1024,
                          naggregators: Optional[int] = None,
                          procs_per_node: int = 1,
                          base_offset: int = 0) -> CollectivePlan:
    """Plan the collective-buffering rounds for one collective write.

    Parameters
    ----------
    pattern:
        The per-process file view.
    nprocs:
        Number of writing processes.
    cb_buffer_size:
        Per-aggregator staging buffer (ROMIO ``cb_buffer_size``; ROMIO's
        default is 4 MiB; BG/P deployments used larger values).
    naggregators:
        Aggregator count (ROMIO ``cb_nodes``).  Defaults to one per compute
        node, i.e. ``ceil(nprocs / procs_per_node)``.
    base_offset:
        Starting file offset of the whole operation.

    Notes
    -----
    For a strided pattern essentially every byte must change processes on
    its way to the aggregator that owns its file range; for a contiguous
    pattern ROMIO assigns aggregators so that most data is node-local, so
    the shuffle is a small constant fraction (we use 1/8, covering domain
    boundary spill).
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    if cb_buffer_size < 1:
        raise ValueError(f"cb_buffer_size must be >= 1, got {cb_buffer_size}")
    if naggregators is None:
        naggregators = max(1, math.ceil(nprocs / max(1, procs_per_node)))
    if naggregators < 1:
        raise ValueError(f"naggregators must be >= 1, got {naggregators}")
    naggregators = min(naggregators, nprocs)

    total = pattern.total_bytes(nprocs)
    per_round = naggregators * cb_buffer_size
    nrounds = max(1, math.ceil(total / per_round))
    remote_fraction = 1.0 if pattern.is_strided else 0.125

    rounds: List[CollectiveRound] = []
    remaining = total
    offset = base_offset
    for i in range(nrounds):
        chunk = min(per_round, remaining)
        rounds.append(CollectiveRound(
            index=i,
            offset=offset,
            write_bytes=chunk,
            shuffle_bytes=int(chunk * remote_fraction),
        ))
        offset += chunk
        remaining -= chunk
    assert remaining == 0, "round planning must cover all bytes"
    return CollectivePlan(rounds=tuple(rounds), naggregators=naggregators,
                          cb_buffer_size=cb_buffer_size, total_bytes=total)

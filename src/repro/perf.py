"""Performance instrumentation for the simulation kernel and experiments.

The incremental allocation kernel's whole point is doing *less work per
event*; this module makes that observable.  A :class:`PerfCounters` bag is
created per :class:`~repro.platforms.Platform` and threaded through the
simulator, the flow network, the storage servers, the parallel file system
and the monitors, which bump named counters as they work:

=========================  ====================================================
counter                    meaning
=========================  ====================================================
``events_processed``       simulator events dispatched (timers included)
``events_coincident``      events dispatched as non-leaders of a
                           same-timestamp batch — for every batch of ``n``
                           coincident events the batch dispatcher bumps
                           this by ``n - 1`` (one clock write served them
                           all); high values mean the wave/cohort regimes
                           are hitting the batch fast path
``timers_cancelled``       ``call_at`` timers (and ``Timeout`` events)
                           cancelled or superseded before firing — each one
                           is queue traffic that never reached a callback.
                           Counted when the dead entry is *retired* from
                           the queue (skipped at pop time or swept by bulk
                           compaction), not at ``cancel()`` time, keeping
                           cancellation itself bookkeeping-free; totals
                           match once the queue drains.  Compare with
                           ``wake_stale_pops`` to see guard dispatches
                           converted into cancellations
``timer_fastpath_hits``    timers dispatched through the slotted
                           fast path (no Event allocation, no callback
                           list — just the stored function pointer)
``reallocations``          allocator invocations (any trigger)
``rate_recomputations``    progressive-filling runs (per dirty component)
``flows_touched``          flows re-priced across all recomputations
``components_refilled``    dirty components walked
``flow_starts``            flows started
``flow_completions``       flows that delivered their last byte
``wakes``                  completion-horizon wakeups handled
``wake_stale_pops``        invalidated heap entries lazily popped (repriced,
                           finished or cancelled flows)
``wake_compactions``       wake-heap garbage compaction passes
``io_requests``            requests admitted by storage servers
``pfs_writes``/``reads``   file-system level operations
``timeseries_samples``     monitor samples recorded
``coord_decisions``        strategy decisions taken by the arbiter
``coord_rounds``           coordination rounds flushed (batched arbiter)
``coord_exchanges``        Inform/Release exchanges coalesced into rounds
``coord_grants``           authorizations granted (initial GO included)
``coord_preemptions``      ACTIVE -> PREEMPTED transitions
``coord_messages``         session-level coordination messages sent
``coord_seconds``          host CPU spent in the arbiter decision loop,
                           summed across shard workers in process mode
``coord_wall_seconds``     caller-side elapsed time of coordination — equal to
                           ``coord_seconds`` inline, router-side blocking time
                           (overlapped workers excluded) in process mode
``wall_seconds``           host wall-clock of the run (attached by the engine)
=========================  ====================================================

The simulator's dispatch counters (``events_*``, ``timer_fastpath_hits``,
``timers_cancelled``) and the flow network's per-flow, per-refill and
per-wake ones (``flow_*``, ``reallocations``, ``rate_recomputations``,
``flows_touched``, ``components_refilled``, ``wakes``, ``wake_*``) are
plain integer attributes of their owner, folded into the bag whenever it
is read (:meth:`PerfCounters.attach`), so every reader, the service's
live ``/metrics`` included, sees the same numbers as if each had been
bumped.

The coordination service daemon (:mod:`repro.service`) bumps its own
family into the same bag: ``service_connections`` / ``service_sessions``
(admitted connections and the app sessions they carry),
``service_rejections`` (admission refusals), ``service_frames`` /
``service_exchanges_applied`` (wire frames read and exchanges applied to
the arbiter), ``service_grants_pushed`` (unsolicited authorization
pushes), ``service_reordered_frames`` / ``service_backpressure_stalls``
(replay-sequencer buffering and paused reads),
``service_crash_withdrawals`` / ``service_abnormal_disconnects`` (crash
semantics), ``service_protocol_errors`` and ``service_drains``.
The per-frame ones (``service_frames``, ``service_exchanges_applied``,
``service_grants_pushed``, ``service_reordered_frames``) are plain
integers of the daemon, folded like the simulator's.

Both inter-process data planes — the service daemon and the
``workers="process"`` shard pool (JSON only) — meter the wire layer
(:mod:`repro.service.protocol`) through the ``wire_*`` family; the
``wire_desc_*`` and ``wire_generic_frames`` counters come from the binary
codec, so they count the service plane only:

==========================  ==================================================
counter                     meaning
==========================  ==================================================
``wire_frames_encoded``     frames serialized (either codec)
``wire_frames_decoded``     frames parsed (either codec)
``wire_bytes_encoded``      bytes produced, length prefixes included
``wire_bytes_decoded``      bytes consumed, length prefixes included
``wire_encode_seconds``     host CPU spent serializing frames, timed
                            once per flush
``wire_decode_seconds``     host CPU spent splitting and parsing frames,
                            timed once per received chunk
``wire_flushes``            coalesced buffer flushes — each is one
                            ``sendall``/``write`` syscall shipping every
                            frame queued since the previous flush
``wire_coalesced_frames``   frames that rode an earlier frame's flush
                            (``n``-frame batches bump this by ``n - 1``);
                            the mean batch size is
                            ``1 + coalesced/flushes``
``wire_desc_interned``      descriptors sent in full and assigned an
                            intern id
``wire_desc_refs``          descriptors sent as an id reference plus the
                            two mutable fields — each one is a ~250-byte
                            JSON object collapsed to ~30 bytes
``wire_generic_frames``     binary-codec messages that fell back to the
                            tagged canonical-JSON generic path (rare
                            types, off-schema payloads)
==========================  ==================================================

Each encoder and decoder keeps its ``wire_*`` counts as plain integers
folded into the bag it was given; a daemon connection's pair is folded a
last time and released (:meth:`PerfCounters.detach`) when it closes.
Worker-process counters (including their ``wire_*`` side) are merged into
the router's bag at pool close, so they land in
``ExperimentResult.perf`` and the ops ``/metrics`` endpoint like every
other counter.

Under sharded coordination (see :mod:`repro.core.sharding`) every
``coord_*`` counter above stays the machine-wide total, and each arbiter
shard additionally bumps a ``coord_*_shard<i>`` twin so per-shard load
(balance, hot shards) is visible in the same ``ExperimentResult.perf``.

Derived ratios are what you read: ``flows_touched / rate_recomputations``
is the mean dirty-component size (≈ per-bottleneck flow count; the
whole-network oracle in :mod:`repro.oracles` approaches the total active
flow count), and
``rate_recomputations / events_processed`` shows how much of the event
stream actually re-priced bandwidth.

:class:`~repro.experiments.engine.ExperimentEngine` snapshots the
platform's counters (plus wall-clock) into every
:class:`~repro.experiments.engine.ExperimentResult.perf`, and
``benchmarks/test_scale_kernel.py`` persists them to
``benchmarks/results/BENCH_kernel.json``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["PerfCounters", "WallTimer", "merge_counts"]


class PerfCounters:
    """A bag of named monotonic counters.

    Deliberately tiny: ``bump`` is called on the simulator's hot path, so
    there is no per-counter object, no locking, no timestamps — just a dict
    of numbers.  All values are plain ints/floats and therefore
    JSON-serializable as-is.

    The hottest sites (the event core per dispatch batch, the flow network
    per flow, refill and wake) skip even ``bump``: they increment plain
    integer attributes registered with :meth:`attach`, which every read
    folds into the bag first, so ``get``/``as_dict`` see the same numbers
    as if each increment had been a bump.
    """

    __slots__ = ("_counts", "_sources")

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}
        self._sources: List[Tuple[Any, Tuple[Tuple[str, str], ...]]] = []

    def attach(self, source: Any, names: Iterable[str]) -> None:
        """Fold ``source._n_<name>`` into counter ``name`` on every read.

        Each attribute is a number the source adds to (an event count, or
        seconds for a ``*_seconds`` timer); a read adds every non-zero one
        to its counter and resets it to zero.
        """
        self._sources.append(
            (source, tuple((name, "_n_" + name) for name in names)))

    def detach(self, *sources: Any) -> None:
        """Fold ``sources`` one last time and stop reading them.

        For sources that end before the bag does (a daemon connection's
        codec pair), so the list read on every fold does not grow with
        every source ever attached.
        """
        self._fold()
        self._sources = [entry for entry in self._sources
                         if not any(entry[0] is src for src in sources)]

    def _fold(self) -> None:
        counts = self._counts
        for source, fields in self._sources:
            for name, attr in fields:
                n = getattr(source, attr)
                if n:
                    setattr(source, attr, 0)
                    counts[name] = counts.get(name, 0) + n

    def bump(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at zero)."""
        counts = self._counts
        counts[name] = counts.get(name, 0) + n

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 if never bumped)."""
        self._fold()
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, float]:
        """Sorted snapshot of all counters."""
        self._fold()
        return dict(sorted(self._counts.items()))

    def clear(self) -> None:
        self._fold()
        self._counts.clear()

    def merge(self, other: Mapping[str, float]) -> None:
        """Add another snapshot's counts into this bag."""
        for name, value in other.items():
            self.bump(name, value)

    def __len__(self) -> int:
        self._fold()
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:g}" for k, v in self.as_dict().items())
        return f"<PerfCounters {inner}>"


class WallTimer:
    """Context manager measuring host wall-clock seconds.

    >>> with WallTimer() as timer:
    ...     pass
    >>> timer.seconds >= 0
    True
    """

    __slots__ = ("_start", "seconds")

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.seconds: float = 0.0

    def __enter__(self) -> "WallTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.seconds = time.perf_counter() - self._start


def merge_counts(snapshots: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Sum a sequence of counter snapshots (e.g. across a campaign)."""
    merged = PerfCounters()
    for snap in snapshots:
        merged.merge(snap)
    return merged.as_dict()

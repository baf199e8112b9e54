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
``components_refilled``    dirty components walked (incremental mode only)
``flow_starts``            flows started
``flow_completions``       flows that delivered their last byte
``wakes``                  completion-horizon wakeups handled
``fill_cache_hits``        refills served entirely from the cached
                           bottleneck order (no fresh bottleneck scan)
``fill_partial_refills``   refills that replayed a prefix of the cached
                           order, then re-derived the tail fresh
``fill_cache_misses``      refills with nothing reusable (first fill of a
                           component, or the first cached step invalidated)
``fill_steps_reused``      cached bottleneck steps replayed across refills
``fill_slot_restores``     refills served from a non-most-recent cache slot
                           (a capacity wiggle returned to a recorded vector)
``wake_stale_pops``        invalidated heap entries lazily popped (repriced,
                           finished, cancelled, or migrated flows; dead
                           component index entries)
``wake_compactions``       wake-heap/garbage compaction passes
``wake_comp_rebuilds``     component-registry rebuilds (merges and splits)
``vec_refills``            vectorized whole-component refills (fill + horizon
                           recomputation over the component's arrays)
``vec_rebuilds``           vectorized state rebuilds — merges, splits, and
                           membership changes that re-pack a component's
                           flows into fresh contiguous arrays
``vec_rebuild_flows``      flows copied across all ``vec_rebuilds`` (the
                           array-repacking volume; compare with
                           ``flows_touched`` to see how often the stale-flag
                           fast path avoided a rebuild)
``vec_appends``            in-place array appends (arrivals whose links all
                           live in one current state — no BFS, no repack of
                           the existing rows)
``vec_append_flows``       flows materialized across all ``vec_appends``
``vec_fill_steps``         bottleneck-fixing steps taken by the vectorized
                           progressive filler (each fixes one link *or* one
                           batch of caps, whole-array arithmetic per step)
``vec_cap_batches``        fill steps that fixed a batch of per-flow caps in
                           one masked vector operation instead of one cap
                           per scan as the scalar loop does
``vec_rate_writebacks``    per-flow rate writebacks from component arrays to
                           flow objects after a refill (only rows whose rate
                           actually changed are written)
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

Both inter-process data planes — the service daemon and the
``workers="process"`` shard pool — meter the wire layer
(:mod:`repro.service.protocol`) through the ``wire_*`` family:

==========================  ==================================================
counter                     meaning
==========================  ==================================================
``wire_frames_encoded``     frames serialized (either codec)
``wire_frames_decoded``     frames parsed (either codec)
``wire_bytes_encoded``      bytes produced, length prefixes included
``wire_bytes_decoded``      bytes consumed, length prefixes included
``wire_encode_seconds``     host CPU spent serializing frames
``wire_decode_seconds``     host CPU spent parsing frames
``wire_flushes``            coalesced buffer flushes — each is one
                            ``sendall``/``write`` syscall shipping every
                            frame queued since the previous flush
``wire_coalesced_frames``   frames that rode an earlier frame's flush
                            (``n``-frame batches bump this by ``n - 1``);
                            the mean batch size is
                            ``1 + coalesced/flushes``
``wire_desc_interned``      descriptors sent in full and assigned an
                            intern id (binary codec)
``wire_desc_refs``          descriptors sent as an id reference plus the
                            two mutable fields — each one is a ~250-byte
                            JSON object collapsed to ~30 bytes
``wire_generic_frames``     binary-codec messages that fell back to the
                            tagged canonical-JSON generic path (rare
                            types, off-schema payloads)
==========================  ==================================================

Worker-process counters (including their ``wire_*`` side) are merged into
the router's bag at pool close, so they land in
``ExperimentResult.perf`` and the ops ``/metrics`` endpoint like every
other counter.

Under sharded coordination (see :mod:`repro.core.sharding`) every
``coord_*`` counter above stays the machine-wide total, and each arbiter
shard additionally bumps a ``coord_*_shard<i>`` twin so per-shard load
(balance, hot shards) is visible in the same ``ExperimentResult.perf``.

Derived ratios are what you read: ``flows_touched / rate_recomputations``
is the mean dirty-component size (≈ total active flows under the global
allocator, ≈ per-bottleneck flow count under the incremental one), and
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

__all__ = ["PerfCounters", "WallTimer", "check_perf_regression",
           "merge_counts"]


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

        Each attribute is an integer the source increments; a read adds
        every non-zero one to its counter and resets it to zero.
        """
        self._sources.append(
            (source, tuple((name, "_n_" + name) for name in names)))

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


# ---------------------------------------------------------------------------
# CI perf-regression gating over the BENCH_*.json records
# ---------------------------------------------------------------------------

def _without(config: Any, keys: Tuple[str, ...]) -> Any:
    if not isinstance(config, Mapping):
        return config
    return {k: v for k, v in config.items() if k not in keys}


def _kernel_speedup(record: Mapping[str, Any]) -> float:
    return float(record["speedup"])


def _arbiter_speedup(record: Mapping[str, Any], scale: str) -> float:
    return float(record["scales"][scale]["speedup"])


def _shard_speedup(record: Mapping[str, Any], scale: str,
                   nshards: str) -> float:
    return float(record["scales"][scale][nshards]["speedup"])


def check_perf_regression(fresh: Mapping[str, Any],
                          committed: Mapping[str, Any],
                          kind: str,
                          factor: float = 2.0) -> Tuple[bool, str]:
    """Gate a fresh benchmark record against the committed one.

    Returns ``(ok, message)``; ``ok`` is False when the fresh record's
    **achieved speedup** (optimized path vs the retained oracle, measured
    within one run on one machine) collapsed by more than ``factor``
    relative to the committed record's.  Speedups are hardware-independent
    where raw wall-clock is not — a committed record from a developer
    laptop would otherwise gate a CI runner on machine speed — and a
    >``factor``x wall-clock regression of the optimized path alone shows
    up exactly as a >``factor``x speedup collapse.

    Speedups are only comparable at matching workloads, so the kernel gate
    requires equal configs and the arbiter gate compares the largest scale
    the two records share (requiring the per-scale workload parameters to
    match); mismatches skip loudly rather than comparing junk.  Shared
    slowdowns hitting both paths equally are invisible to a speedup ratio
    — the CLI wrapper prints raw wall-clock as a non-fatal advisory for
    eyeballing those.
    """
    if kind == "kernel":
        # Regime sub-records (per-scale {"speedup": ...} maps under a
        # regime key): "churn" gates the cached kernel vs the PR-2
        # incremental baseline, "hyperscale" gates the vectorized kernel
        # vs the incremental oracle.  Each gates at the largest scale the
        # two records share, with matching per-scale workload parameters.
        # A regime present in only one record — the normal state while a
        # new regime rolls out, or on hosts that skipped it — must skip
        # with an explicit note rather than KeyError: the committed
        # record predates the regime, not the other way around.
        notes = []
        for regime in ("churn", "hyperscale"):
            label = f"kernel-{regime}"
            fresh_sub = fresh.get(regime) or {}
            committed_sub = committed.get(regime) or {}
            if bool(fresh_sub) != bool(committed_sub):
                side = "committed" if fresh_sub else "fresh"
                notes.append(f"{label}: {side} record lacks the regime — "
                             "skipping sub-gate")
                continue
            if not fresh_sub:
                continue
            common = sorted(set(fresh_sub.get("scales", {}))
                            & set(committed_sub.get("scales", {})),
                            key=float)
            if common and (_without(fresh_sub.get("config"),
                                    ("scales", "full_scale"))
                           != _without(committed_sub.get("config"),
                                       ("scales", "full_scale"))):
                # Workloads differ: that sub-gate is not comparable, but
                # the base incremental-vs-global gate below still is.
                notes.append(f"{label}: workload parameters differ — "
                             "skipping sub-gate")
                common = []
            elif not common:
                notes.append(f"{label}: records share no scale — "
                             "skipping sub-gate")
            if common:
                scale = common[-1]
                fresh_c = float(fresh_sub["scales"][scale]["speedup"])
                committed_c = float(committed_sub["scales"][scale]
                                    ["speedup"])
                if committed_c > 0:
                    collapse = committed_c / max(fresh_c, 1e-12)
                    if collapse > factor:
                        return False, (
                            f"{label}@{scale}: fresh speedup "
                            f"{fresh_c:.2f}x vs committed "
                            f"{committed_c:.2f}x ({collapse:.2f}x "
                            f"collapse, limit {factor}x)")
        suffix = ("" if not notes else " [" + "; ".join(notes) + "]")
        if "speedup" not in fresh or "speedup" not in committed:
            side = "fresh" if "speedup" not in fresh else "committed"
            return True, (f"kernel: {side} record lacks the base "
                          "decision-free speedup — skipping base gate"
                          + suffix)
        if fresh.get("config") != committed.get("config"):
            return True, ("kernel: configs differ; speedups are not "
                          "comparable — skipping gate (run the committed "
                          "configuration to gate)" + suffix)
        fresh_speedup = _kernel_speedup(fresh)
        committed_speedup = _kernel_speedup(committed)
        if committed_speedup <= 0:
            return True, "kernel: committed speedup is zero; skipping gate"
        collapse = committed_speedup / max(fresh_speedup, 1e-12)
        message = (f"kernel: fresh speedup {fresh_speedup:.2f}x vs "
                   f"committed {committed_speedup:.2f}x "
                   f"({collapse:.2f}x collapse, limit {factor}x)" + suffix)
        return collapse <= factor, message
    elif kind in ("arbiter", "service"):
        # Same record shape: per-scale {"speedup": ...} under "scales".
        # For the service the scale is the client count and the speedup is
        # over-the-wire decision throughput vs the in-process run.
        notes = []
        if kind == "service":
            # Codec sub-record (binary vs JSON wire codec on the pipelined
            # replay at the largest committed client count): gate the
            # binary/JSON throughput ratio the same way the shard gate
            # handles its process sub-record — a sub-record missing on
            # either side, or recorded under different workload
            # parameters, skips loudly instead of KeyError-ing.
            fresh_codec = fresh.get("codec") or {}
            committed_codec = committed.get("codec") or {}
            if bool(fresh_codec) != bool(committed_codec):
                side = "committed" if fresh_codec else "fresh"
                notes.append(f"service-codec: {side} record lacks the "
                             "sub-record — skipping sub-gate")
            elif fresh_codec:
                if (_without(fresh_codec.get("config"), ("full_scale",))
                        != _without(committed_codec.get("config"),
                                    ("full_scale",))):
                    notes.append("service-codec: workload parameters "
                                 "differ — skipping sub-gate")
                else:
                    fresh_c = float(fresh_codec["speedup"])
                    committed_c = float(committed_codec["speedup"])
                    if committed_c > 0:
                        collapse = committed_c / max(fresh_c, 1e-12)
                        if collapse > factor:
                            return False, (
                                f"service-codec: fresh binary/json speedup "
                                f"{fresh_c:.2f}x vs committed "
                                f"{committed_c:.2f}x ({collapse:.2f}x "
                                f"collapse, limit {factor}x)")
        suffix = ("" if not notes else " [" + "; ".join(notes) + "]")
        common = sorted(set(fresh.get("scales", {}))
                        & set(committed.get("scales", {})), key=float)
        if not common:
            return True, (f"{kind} records share no scale; skipping gate"
                          + suffix)
        ignore = ("scales", "full_scale")
        if (_without(fresh.get("config"), ignore)
                != _without(committed.get("config"), ignore)):
            return True, (f"{kind}: per-scale workload parameters differ; "
                          "speedups are not comparable — skipping gate"
                          + suffix)
        scale = common[-1]
        fresh_speedup = _arbiter_speedup(fresh, scale)
        committed_speedup = _arbiter_speedup(committed, scale)
        kind = f"{kind}@{scale}{suffix}"
    elif kind == "sim":
        # Dispatch-core sub-record in BENCH_sim.json: per-scale
        # {"speedup": ...} maps under the "dispatch" regime key, where the
        # speedup is the batch-dispatch/cancellable-timer loop against the
        # retained per-event heap oracle on the same workload.  Mirrors
        # the kernel regime sub-gates: a regime missing on either side —
        # the normal state while the record rolls out — skips loudly
        # instead of KeyError-ing.
        label = "sim-dispatch"
        fresh_sub = fresh.get("dispatch") or {}
        committed_sub = committed.get("dispatch") or {}
        if bool(fresh_sub) != bool(committed_sub):
            side = "committed" if fresh_sub else "fresh"
            return True, (f"{label}: {side} record lacks the regime — "
                          "skipping gate")
        if not fresh_sub:
            return True, (f"{label}: neither record has the regime — "
                          "skipping gate")
        common = sorted(set(fresh_sub.get("scales", {}))
                        & set(committed_sub.get("scales", {})), key=float)
        if not common:
            return True, f"{label}: records share no scale; skipping gate"
        ignore = ("scales", "full_scale")
        if (_without(fresh_sub.get("config"), ignore)
                != _without(committed_sub.get("config"), ignore)):
            return True, (f"{label}: workload parameters differ; speedups "
                          "are not comparable — skipping gate")
        scale = common[-1]
        fresh_speedup = float(fresh_sub["scales"][scale]["speedup"])
        committed_speedup = float(committed_sub["scales"][scale]["speedup"])
        kind = f"{label}@{scale}"
    elif kind == "shard":
        # Process-worker sub-record (one worker process per shard vs the
        # inline router on the wave workload): gate the CPU-seconds
        # speedup — wall-clock depends on the host's core count (the
        # record's "cores" field), so it is advisory-only, printed by the
        # CLI wrapper.
        fresh_proc = fresh.get("process") or {}
        committed_proc = committed.get("process") or {}
        ignore_proc = ("cores", "full_scale")
        if (fresh_proc and committed_proc
                and _without(fresh_proc.get("config"), ignore_proc)
                == _without(committed_proc.get("config"), ignore_proc)):
            fresh_c = float(fresh_proc["speedup_cpu"])
            committed_c = float(committed_proc["speedup_cpu"])
            if committed_c > 0:
                collapse = committed_c / max(fresh_c, 1e-12)
                if collapse > factor:
                    return False, (
                        f"shard-process: fresh cpu speedup {fresh_c:.2f}x "
                        f"vs committed {committed_c:.2f}x "
                        f"({collapse:.2f}x collapse, limit {factor}x)")
        common = sorted(set(fresh.get("scales", {}))
                        & set(committed.get("scales", {})), key=float)
        if not common:
            return True, "shard records share no scale; skipping gate"
        ignore = ("scales", "full_scale")
        if (_without(fresh.get("config"), ignore)
                != _without(committed.get("config"), ignore)):
            return True, ("shard: per-scale workload parameters differ; "
                          "speedups are not comparable — skipping gate")
        scale = common[-1]
        shards = sorted(set(fresh["scales"][scale])
                        & set(committed["scales"][scale]), key=float)
        if not shards:
            return True, "shard records share no shard count; skipping gate"
        nshards = shards[-1]
        fresh_speedup = _shard_speedup(fresh, scale, nshards)
        committed_speedup = _shard_speedup(committed, scale, nshards)
        kind = f"shard@{scale}x{nshards}"
    else:
        raise ValueError(f"unknown benchmark kind {kind!r}")

    if committed_speedup <= 0:
        return True, f"{kind}: committed speedup is zero; skipping gate"
    collapse = committed_speedup / max(fresh_speedup, 1e-12)
    message = (f"{kind}: fresh speedup {fresh_speedup:.2f}x vs committed "
               f"{committed_speedup:.2f}x "
               f"({collapse:.2f}x collapse, limit {factor}x)")
    return collapse <= factor, message

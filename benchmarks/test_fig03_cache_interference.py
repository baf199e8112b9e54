"""Figure 3: interference destroys the write-back cache's benefit.

Paper setup: G5K Nancy, 35 PVFS servers, kernel caching enabled in the
storage backend.  One IOR instance (336 cores) writes every 10 seconds; a
second instance on 336 other cores writes every 7 seconds.  Alone, the
first instance's throughput sits at cache speed every iteration; with the
second instance running, iterations where the two writes collide lose the
cache (the dirty pool overflows) and throughput "drops dramatically".
"""

import numpy as np

from repro.apps import IORConfig
from repro.experiments import ExperimentEngine, ExperimentSpec, banner, format_table
from repro.mpisim import Contiguous
from repro.platforms import grid5000_nancy

PLATFORM = grid5000_nancy(cache=True)
ENGINE = ExperimentEngine()


def _app(name, period, iterations):
    return IORConfig(
        # The paper does not state the per-write volume for this experiment;
        # 3 MB/process keeps one write inside the dirty pool, lets two
        # colliding writes overflow it, and keeps the post-collapse offered
        # load (2W per ~8.5 s ~ 245 MB/s) below the 285 MB/s drain so clean
        # iterations recover — the paper's alternating pattern.
        name=name, nprocs=336, pattern=Contiguous(block_size=3_000_000),
        iterations=iterations, period=period, procs_per_node=24, grain=None,
    )


def _pipeline():
    alone = ENGINE.run(ExperimentSpec.single(
        PLATFORM, _app("ior1", 10.0, 10), measure_alone=False))
    both = ENGINE.run(ExperimentSpec.pair(
        PLATFORM, _app("ior1", 10.0, 10), _app("ior2", 7.0, 15),
        dt=0.0, measure_alone=False))
    return alone.record("ior1"), both.record("ior1")


def test_fig03_cache_interference(once, report):
    alone, both = once(_pipeline)
    bytes_per_phase = _app("ior1", 10.0, 10).bytes_per_phase
    tp_alone = np.array([bytes_per_phase / t for t in alone.write_times]) / 1e6
    tp_both = np.array([bytes_per_phase / t for t in both.write_times]) / 1e6

    rows = [[i + 1, a, b, "<- collision" if b < 0.6 * a else ""]
            for i, (a, b) in enumerate(zip(tp_alone, tp_both))]
    text = "\n".join([
        banner("Fig 3: periodic writer throughput, cached backend (MB/s)"),
        f"cache speed ~{PLATFORM.aggregate_bandwidth / 1e6:.0f} MB/s, "
        f"disk speed ~{PLATFORM.aggregate_disk_bandwidth / 1e6:.0f} MB/s",
        format_table(["iter", "alone", "with interference", ""], rows),
    ])
    report("fig03_cache_interference", text)

    # Alone: every iteration at cache speed (pool drains between writes).
    assert tp_alone.min() > 0.8 * tp_alone.max()
    assert tp_alone.mean() > PLATFORM.aggregate_disk_bandwidth / 1e6
    # With interference: some iterations collapse dramatically...
    collisions = tp_both < 0.6 * tp_alone.mean()
    assert collisions.sum() >= 2
    # ...while the writers still exceed disk speed on clean iterations.
    assert tp_both.max() > PLATFORM.aggregate_disk_bandwidth / 1e6
    # The collapse is severe (paper: factor ~5-8 down from cache speed).
    assert tp_both.min() < 0.45 * tp_alone.mean()

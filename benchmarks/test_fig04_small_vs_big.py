"""Figure 4: a small application crushed by a big one.

Paper setup: G5K Nancy, PVFS on 35 nodes; A runs on 336 processes, the
size of B varies; each process writes 16 MB; both start simultaneously.
"When B runs on 8 cores while A runs on 336, B observes a 6x decrease of
throughput compared with B running alone on 8 cores."
"""

from repro.apps import IORConfig
from repro.experiments import ExperimentEngine, ExperimentSpec, banner, format_table
from repro.mpisim import Contiguous
from repro.platforms import grid5000_nancy

PLATFORM = grid5000_nancy()
ENGINE = ExperimentEngine()
SIZES_B = [8, 16, 32, 64, 128, 336]


def _app(name, nprocs):
    return IORConfig(name=name, nprocs=nprocs,
                     pattern=Contiguous(block_size=16_000_000),
                     procs_per_node=24, grain=None)


def _pipeline():
    specs = [ExperimentSpec.pair(PLATFORM, _app("A", 336), _app("B", nb),
                                 dt=0.0, meta={"split": nb})
             for nb in SIZES_B]
    results = ENGINE.run_all(specs)
    return {r.spec.meta["split"]: r for r in results}


def test_fig04_small_vs_big(once, report):
    results = once(_pipeline)
    rows = []
    slowdowns = {}
    for nb, res in results.items():
        bytes_b = nb * 16_000_000
        a, b = res.record("A"), res.record("B")
        tp_alone = bytes_b / b.t_alone / 1e6
        tp_inter = bytes_b / b.write_time / 1e6
        slowdowns[nb] = tp_alone / tp_inter
        agg = (bytes_b + 336 * 16_000_000) / max(a.write_time,
                                                 b.write_time) / 1e6
        rows.append([nb, tp_alone, tp_inter, slowdowns[nb], agg])
    text = "\n".join([
        banner("Fig 4: B's throughput against a 336-core A (MB/s)"),
        format_table(
            ["cores B", "B alone", "B w/ A", "slowdown", "aggregate"],
            rows),
        f"8-core slowdown: {slowdowns[8]:.1f}x (paper: ~6x)",
    ])
    report("fig04_small_vs_big", text)

    # The small-B slowdown is severe and in the paper's range.
    assert 4.0 < slowdowns[8] < 9.0
    # Below the saturation knee (B client-bound alone), the slowdown is
    # size-independent: ~ c x (N_A + N_B) / S for every small B...
    assert abs(slowdowns[8] - slowdowns[32]) < 1.0
    # ...and decays above the knee toward the equal-apps factor of ~2.
    assert slowdowns[64] > slowdowns[128] > slowdowns[336]
    assert 1.5 < slowdowns[336] < 2.5

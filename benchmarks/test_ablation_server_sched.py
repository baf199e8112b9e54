"""Ablation: server-side scheduling without application knowledge (§I, §V-C).

The paper's opening argument: a file system alone can be "fair" (share
bandwidth) or serialize raw requests, but without knowing application sizes
and constraints neither achieves machine-wide efficiency.  We pit the three
server-side admission policies against each other on the small-vs-big
workload and show none of them matches what CALCioM's interruption achieves
with exchanged knowledge.

Uses unpooled servers (the policies act per server).
"""

from repro.apps import IORConfig
from repro.experiments import ExperimentEngine, ExperimentSpec, banner, format_table
from repro.mpisim import Contiguous
from repro.platforms import grid5000_rennes

#: Scaled-down unpooled platform: 4 physical servers keep the flow count low.
BASE = grid5000_rennes().with_(pool_servers=False, nservers=4,
                               disk_bandwidth=150e6)
ENGINE = ExperimentEngine()


def _app(name, nprocs):
    return IORConfig(name=name, nprocs=nprocs,
                     pattern=Contiguous(block_size=16_000_000),
                     procs_per_node=24, grain="round")


def _pipeline():
    out = {}
    for sched in ("shared", "fifo", "app-serial"):
        platform_cfg = BASE.with_(scheduler=sched)
        spec = ExperimentSpec.pair(platform_cfg, _app("A", 744),
                                   _app("B", 24), dt=2.0)
        out[sched] = ENGINE.run(spec)
    out["calciom-interrupt"] = ENGINE.run(ExperimentSpec.pair(
        BASE, _app("A", 744), _app("B", 24), dt=2.0,
        strategy="interrupt"))
    return out


def test_ablation_server_scheduler(once, report):
    out = once(_pipeline)
    rows = []
    for label, res in out.items():
        a, b = res.record("A"), res.record("B")
        rows.append([label, a.write_time, b.write_time,
                     a.interference_factor, b.interference_factor,
                     res.cpu_seconds_wasted()])
    text = "\n".join([
        banner("Ablation: server-side policies vs CALCioM "
               "(A=744, B=24 cores, dt=2 s)"),
        format_table(["policy", "T_A", "T_B", "I_A", "I_B",
                      "CPU-s wasted"], rows),
    ])
    report("ablation_server_sched", text)

    # The small app B's interference factor under each policy.
    shared, fifo, aps, cal = (
        out[label].record("B").interference_factor
        for label in ("shared", "fifo", "app-serial", "calciom-interrupt"))
    # Fair sharing crushes the small app.
    assert shared > 5.0
    # Blind serialization (FIFO / app-serial at the server) also leaves the
    # small late arriver behind the big app's bulk.
    assert fifo > 5.0
    assert aps > 5.0
    # Only knowledge-driven interruption rescues it.
    assert cal < 4.0
    assert cal < 0.5 * min(shared, fifo)

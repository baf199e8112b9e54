"""Ablation: the efficiency metric flips the dynamic decision.

§III-A.4: "The choice of a strategy over another should be made on the
basis of a system wide efficiency metric."  The metric is a free parameter
— and it matters.  On the 744-vs-24 split:

* CPU-seconds-wasted weights the big app 31x heavier, so the dynamic
  strategy serializes the small app behind it;
* sum-of-interference-factors normalizes by standalone time, so the same
  strategy interrupts the big app to save the small one.

Both decisions are *optimal for their metric* — the point of making the
metric explicit.
"""

from repro.apps import IORConfig
from repro.core import DynamicStrategy
from repro.experiments import ExperimentEngine, ExperimentSpec, banner, format_table
from repro.mpisim import Strided
from repro.platforms import grid5000_rennes

PLATFORM = grid5000_rennes()
ENGINE = ExperimentEngine()
METRICS = ["cpu-seconds-wasted", "sum-interference-factors", "max-slowdown"]


def _app(name, nprocs):
    return IORConfig(name=name, nprocs=nprocs,
                     pattern=Strided(block_size=1_000_000, nblocks=8),
                     procs_per_node=24, grain="round")


def _pipeline():
    out = {}
    for metric in METRICS:
        spec = ExperimentSpec.pair(PLATFORM, _app("A", 744), _app("B", 24),
                                   dt=2.0, strategy=DynamicStrategy(metric))
        out[metric] = ENGINE.run(spec)
    return out


def test_ablation_metric_choice(once, report):
    out = once(_pipeline)
    rows = []
    decisions = {}
    for metric, res in out.items():
        acts = [d.action.value for d in res.decisions if d.app == "B"]
        decisions[metric] = acts[0] if acts else "-"
        rows.append([metric, decisions[metric],
                     res.record("A").interference_factor,
                     res.record("B").interference_factor,
                     res.cpu_seconds_wasted(),
                     res.sum_interference_factors()])
    text = "\n".join([
        banner("Ablation: dynamic decisions under different metrics "
               "(A=744, B=24, dt=2 s)"),
        format_table(["metric", "decision for B", "I_A", "I_B",
                      "CPU-s wasted", "sum I"], rows),
    ])
    report("ablation_metrics", text)

    # CPU-seconds: protect the big app -> B waits.
    assert decisions["cpu-seconds-wasted"] == "wait"
    # Interference-factor metrics: save the small app -> interrupt A.
    assert decisions["sum-interference-factors"] == "interrupt"
    assert decisions["max-slowdown"] == "interrupt"
    # Each choice optimizes its own metric.
    assert (out["cpu-seconds-wasted"].cpu_seconds_wasted()
            < out["sum-interference-factors"].cpu_seconds_wasted())
    assert (out["sum-interference-factors"].sum_interference_factors()
            < out["cpu-seconds-wasted"].sum_interference_factors())

"""Machine-scale ablation: trace-window replay under every strategy.

Not a paper figure — the paper evaluates two applications at a time — but
the natural extension its §III-A sketches ("a queue of applications that
have requested access").  A contended half-hour of an Intrepid-like trace
runs under each strategy; the benchmark asserts the coordination story
holds with ten concurrent applications:

* under real contention, every coordinated strategy beats uncoordinated
  interference on CPU-seconds wasted, the dynamic strategy most;
* FCFS minimizes the sum of interference factors instead (it never
  preempts, so nobody's standalone time balloons twice);
* in a light (sub-saturation) cohort, uncoordinated sharing wins — the
  machine-scale Fig 12 insight.
"""

from repro.experiments import banner, format_table, replay_result
from repro.platforms import grid5000_rennes
from repro.traces import IntrepidModel, generate_intrepid_like

WINDOW = (86_400.0, 88_200.0)
STRATEGIES = [None, "fcfs", "interrupt", "dynamic"]


def _run(trace, core_scale, bytes_per_process):
    out = {}
    for strat in STRATEGIES:
        out[strat] = replay_result(
            grid5000_rennes(), trace, WINDOW, strategy=strat,
            core_scale=core_scale, bytes_per_process=bytes_per_process,
            max_jobs=10)
    return out


def _pipeline():
    trace = generate_intrepid_like(IntrepidModel(duration_days=3.0),
                                   seed=2014)
    contended = _run(trace, core_scale=64, bytes_per_process=16_000_000)
    light = _run(trace, core_scale=256, bytes_per_process=4_000_000)
    return contended, light


def test_machine_replay(once, report):
    contended, light = once(_pipeline)
    lines = []
    for label, results in [("contended (64x scale)", contended),
                           ("light (256x scale)", light)]:
        lines.append(banner(f"Trace replay, {label}"))
        rows = []
        for strat, res in results.items():
            rows.append([
                strat or "uncoordinated",
                res.cpu_seconds_wasted(),
                res.sum_interference_factors(),
                max(res.interference_factors().values()),
            ])
        lines.append(format_table(
            ["strategy", "CPU-s wasted", "sum I", "worst I"], rows))
        lines.append("")
    report("machine_replay", "\n".join(lines))

    # Contended: every coordinated strategy beats uncoordinated on the
    # CPU-seconds metric; dynamic is the best of them.
    base = contended[None].cpu_seconds_wasted()
    coordinated = {s: contended[s].cpu_seconds_wasted()
                   for s in ("fcfs", "interrupt", "dynamic")}
    assert all(v < base for v in coordinated.values())
    assert coordinated["dynamic"] == min(coordinated.values())
    assert coordinated["dynamic"] < 0.8 * base
    # FCFS minimizes sum-of-interference-factors (never preempts anyone).
    sums = {s: contended[s].sum_interference_factors()
            for s in STRATEGIES}
    assert sums["fcfs"] == min(sums.values())
    # Light cohort: sharing wins — coordination can only serialize away
    # bandwidth nobody was short of.
    assert light[None].cpu_seconds_wasted() == min(
        light[s].cpu_seconds_wasted() for s in STRATEGIES)

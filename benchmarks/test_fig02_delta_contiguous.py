"""Figure 2: Δ-graph of two equal applications, contiguous collective writes.

Paper setup: G5K Nancy, PVFS on 35 nodes; two applications of 336 processes
each write 16 MB per process contiguously; A starts at 0, B at dt.

Shape to reproduce: write time peaks at dt = 0 (full overlap) at roughly 2x
the standalone time, decays piecewise-linearly to the standalone time at
|dt| >= T(alone) — the "Δ" the graph is named after — and tracks the
proportional-sharing expected curve.
"""

import numpy as np

from repro.experiments import ExperimentEngine, banner, build_scenario, format_table

ENGINE = ExperimentEngine()
DTS = np.arange(-14.0, 14.1, 2.0)


def _pipeline():
    specs = build_scenario("fig02-contiguous-pair", dts=DTS)
    return ENGINE.run_all(specs).delta_graph(with_expected=True)


def test_fig02_delta_graph(once, report):
    g = once(_pipeline)
    rows = [[dt, ta, ea, tb, eb] for dt, ta, ea, tb, eb in
            zip(g.dts, g.t_a, g.expected_a, g.t_b, g.expected_b)]
    text = "\n".join([
        banner("Fig 2: Delta-graph, 2 x 336 procs, 16 MB/proc contiguous"),
        f"standalone write time: A={g.t_alone_a:.2f}s B={g.t_alone_b:.2f}s "
        "(paper: ~8-9s)",
        format_table(["dt", "T_A (s)", "expected", "T_B (s)", "expected"],
                     rows),
    ])
    report("fig02_delta_contiguous", text)

    mid = len(DTS) // 2
    # Peak at dt=0, ~2x alone.
    assert g.t_a[mid] == max(g.t_a)
    assert 1.8 < g.interference_a[mid] < 2.3
    # Δ shape: monotone decay away from 0.
    assert np.all(np.diff(g.t_a[:mid + 1]) >= -1e-6)
    assert np.all(np.diff(g.t_a[mid:]) <= 1e-6)
    # Standalone in the paper's ballpark.
    assert 7.0 < g.t_alone_a < 10.0
    # Tracks the expected proportional-sharing curve.  Both apps are
    # file-system-limited (336 x 11 MB/s > 630 MB/s) and the fabric is
    # ~10x faster than the file system, so the shuffle and message costs
    # the model omits stay below 1% (worst row 9.13 s against 9.07 s);
    # 2% leaves room for rounding, and any real departure from
    # proportional sharing fails.
    assert np.all(np.abs(g.t_a / g.expected_a - 1.0) < 0.02)

"""Figure 8: strided pattern, collective buffering, per-phase impact.

Paper setup: Surveyor, two 2048-core applications write 16 MB per process
as a strided pattern (16 blocks of 1 MB), triggering the collective
buffering (two-phase I/O) algorithm.

(a) Δ-graph: serializing (FCFS) impacts the second application *more* than
    interference does, because the communication phases of two-phase I/O
    tolerate overlap — total demand on the file system is diluted.
(b) Phase breakdown: under interference the communication phase is "almost
    not impacted, while the write phase is the most impacted".
"""


from repro.apps import IORConfig
from repro.experiments import ExperimentEngine, ExperimentSpec, banner, format_table
from repro.mpisim import Strided
from repro.platforms import surveyor

PLATFORM = surveyor()
ENGINE = ExperimentEngine()
DTS = [-40.0, -25.0, -10.0, 0.0, 10.0, 25.0, 40.0]


def _app(name):
    return IORConfig(name=name, nprocs=2048,
                     pattern=Strided(block_size=1_000_000, nblocks=16),
                     procs_per_node=4, grain="round")


def _pipeline():
    interfere = ENGINE.delta_graph(PLATFORM, _app("A"), _app("B"), DTS,
                                   strategy=None, with_expected=True)
    fcfs = ENGINE.delta_graph(PLATFORM, _app("A"), _app("B"), DTS,
                              strategy="fcfs")
    # Phase breakdown: alone, dt=0, dt=10 (paper bars: dt=0s, dt=10s, none).
    specs = [ExperimentSpec.pair(PLATFORM, _app("A"), _app("B"), dt=dt,
                                 measure_alone=False)
             for dt in (1e6, 0.0, 10.0)]
    alone, both0, both10 = (r.record("A") for r in ENGINE.run_all(specs))
    return interfere, fcfs, alone, both0, both10


def test_fig08_collective_buffering(once, report):
    interfere, fcfs, alone, both0, both10 = once(_pipeline)
    lines = [banner("Fig 8a: Delta-graph, strided 16 x 1 MB, 2 x 2048 cores")]
    rows = [[dt, ti, tf, te] for dt, ti, tf, te in
            zip(interfere.dts, interfere.t_b, fcfs.t_b, interfere.expected_b)]
    lines.append(format_table(
        ["dt", "B interfering", "B FCFS", "B expected"], rows))

    lines.append("")
    lines.append(banner("Fig 8b: phases of collective buffering (App A, s)"))
    rows = []
    for label, rec in [("no interference", alone), ("dt = 0 s", both0),
                       ("dt = 10 s", both10)]:
        rows.append([label, rec.comm_times[0], rec.io_write_times[0],
                     rec.write_times[0]])
    lines.append(format_table(["case", "comm phase", "write phase", "total"],
                              rows))
    report("fig08_collective_buffering", "\n".join(lines))

    # (b) Communication phase barely moves; write phase balloons.
    comm_ratio = both0.comm_times[0] / alone.comm_times[0]
    write_ratio = both0.io_write_times[0] / alone.io_write_times[0]
    assert comm_ratio < 1.1
    assert write_ratio > 1.6
    # (a) With overlap-tolerant comm phases, FCFS hurts the second app more
    # than interference at moderate positive dt — the paper's Fig 8a claim.
    mid = DTS.index(0.0)
    assert fcfs.t_b[mid] > interfere.t_b[mid]
    # Interference stays below naive doubling because ~40% of each round is
    # a communication phase that does not contend for storage.
    assert interfere.interference_b[mid] < 1.8

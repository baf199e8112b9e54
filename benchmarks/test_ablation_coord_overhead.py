"""Ablation: the cost of CALCioM's coordination layer.

The paper claims interruption helps "at a negligible cost" for the other
application.  Here we isolate the coordination layer's own overhead: the
same application pair runs (a) with no CALCioM at all and (b) with CALCioM
under the 'interfere' strategy — every decision is GO, so the *only*
difference is the Prepare/Inform/Release message traffic at every round
boundary.
"""

from repro.apps import IORConfig
from repro.experiments import ExperimentEngine, ExperimentSpec, banner, format_table
from repro.mpisim import Strided
from repro.platforms import surveyor

PLATFORM = surveyor()
ENGINE = ExperimentEngine()


def _app(name, grain):
    return IORConfig(name=name, nprocs=2048,
                     pattern=Strided(block_size=1_000_000, nblocks=16),
                     procs_per_node=4, grain=grain)


def _pipeline():
    specs = {
        (grain, label): ExperimentSpec.pair(
            PLATFORM, _app("A", grain), _app("B", grain), dt=0.0,
            strategy=strategy, measure_alone=False)
        for grain in ("file", "round")
        for label, strategy in (("off", None), ("on", "interfere"))
    }
    results = ENGINE.run_all(specs.values())
    return dict(zip(specs, results))


def test_ablation_coordination_overhead(once, report):
    out = once(_pipeline)
    rows = []
    overheads = {}
    for grain in ("file", "round"):
        t_off = out[(grain, "off")].record("A").write_time
        t_on = out[(grain, "on")].record("A").write_time
        overheads[grain] = (t_on - t_off) / t_off
        rows.append([grain, t_off, t_on, 100 * overheads[grain]])
    text = "\n".join([
        banner("Ablation: CALCioM coordination overhead "
               "(interfere strategy = pure message cost)"),
        format_table(["hook grain", "T_A no CALCioM", "T_A CALCioM",
                      "overhead %"], rows),
        "paper claim: coordination cost is negligible",
    ])
    report("ablation_coord_overhead", text)

    # Negligible at both grains: well under 1%.
    assert abs(overheads["file"]) < 0.01
    assert abs(overheads["round"]) < 0.01
    # And round-grain costs more messages than file-grain (sanity check
    # that the hooks actually fire per round).
    assert out[("round", "on")].record("A").write_time >= \
        out[("file", "on")].record("A").write_time - 1e-9

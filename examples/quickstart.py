#!/usr/bin/env python
"""Quickstart: two applications, one shared file system, CALCioM on/off.

Declares the workload mix once (via the named-scenario registry), then
runs it under every coordination setup through one
:class:`~repro.experiments.engine.ExperimentEngine` — standalone
baselines are measured once and shared through the engine's cache.

Run:  python examples/quickstart.py
"""

from repro.core import DynamicStrategy, SumInterferenceFactors
from repro.experiments import (
    ExperimentEngine, build_scenario, format_table, result_set_csv,
)


def main() -> None:
    engine = ExperimentEngine()

    print("Two applications start writing 2 s apart on a 12-server "
          "OrangeFS machine.\n")
    setups = [
        ("uncoordinated", None),
        ("CALCioM fcfs", "fcfs"),
        ("CALCioM interrupt", "interrupt"),
        ("CALCioM dynamic (CPU-seconds metric)", "dynamic"),
        ("CALCioM dynamic (sum-of-I metric)",
         DynamicStrategy(SumInterferenceFactors())),
    ]
    # One spec per setup: the scenario declares the 600-core vs 24-core
    # workload mix; only the strategy varies.
    specs = [build_scenario("rennes-big-small", dt=2.0, strategy=strategy)[0]
             for _, strategy in setups]
    results = engine.run_all(specs)

    rows = []
    for (label, _), result in zip(setups, results):
        big, small = result.record("big-sim"), result.record("small-analysis")
        rows.append([
            label,
            f"{big.write_time:.2f}s",
            f"{small.write_time:.2f}s",
            f"{big.interference_factor:.2f}",
            f"{small.interference_factor:.2f}",
        ])
    print(format_table(
        ["setup", "T big", "T small", "I big", "I small"], rows))
    print(
        "\nReading the table: without coordination the 24-core application"
        "\nis slowed ~10x by its 600-core neighbour; interruption rescues it"
        "\nat a small cost to the big application.  The dynamic strategy"
        "\npicks per arrival — and the machine-wide efficiency metric decides"
        "\nwho it protects: CPU-seconds favours the 600-core app (so the"
        "\nsmall one waits), the interference-factor metric favours the"
        "\nsmall one (so the big one is interrupted)."
    )
    print("\nMachine-readable export (named strategies only):\n")
    print(result_set_csv(results.filter(
        lambda r: r.spec.strategy is None
        or isinstance(r.spec.strategy, str))))


if __name__ == "__main__":
    main()

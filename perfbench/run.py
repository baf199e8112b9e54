"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload many-writers --seed 7 --seconds 10 --trace 0

A run sets the workload up several times, runs one untimed warm-up that also checks byte conservation, then
repeats the measured phase until ``--seconds`` have passed.

* ``--trace 0`` prints the end-to-end metrics of the timed repeats: the
  best repeat's timings and the best set-up sample (see
  :func:`end_to_end_metrics`), and peak memory.
* ``--trace 1`` alternates untraced and traced repeats and prints the
  per-layer metrics of the traced ones (see ``tracer.py``), including
  ``trace.overhead_ratio``, the traced over the untraced median wall
  time.  Every span is written to ``perfbench/out/`` at the end.

Outputs are checked on every repeat: each repeat's result digest must
equal the warm-up's, set-ups must be identical, and at a seed listed in
``digests.json`` the digest must equal the recorded one.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without the package sources next to this
directory (``src/repro``) the run exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform as host_platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Timed repeats per run, whatever ``--seconds`` says.
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2


def _import_package() -> bool:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import repro
    return Path(repro.__file__).resolve().is_relative_to(src.resolve())


def host_fingerprint() -> dict:
    import numpy
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            rev = ref
    return {"cpus": os.cpu_count(), "python": host_platform.python_version(),
            "numpy": numpy.__version__, "git_rev": rev,
            "machine": host_platform.machine()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def recorded_digest(workload: str, seed: int):
    table = json.loads((HERE / "digests.json").read_text())["digests"]
    entry = table.get(workload, {})
    return entry.get("*", entry.get(str(seed)))


class SetUps:
    """Times the workload's set-ups, spread over the whole run.

    One sample is a batch of ``workload.setup_batch`` set-ups in a row,
    timed as a whole and divided by the batch size, so that set-ups of a
    few milliseconds are timed over a tenth of a second or more.  The
    first sample is taken before the warm-up; one more follows each
    measured repeat until the workload's quota is met, so the samples
    cover the same stretch of machine time as the repeats do.  The last
    set-up of every sample must produce the same inputs as the others.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.times = []
        self.fingerprints = set()

    def one(self):
        batch = self.workload.setup_batch
        t0 = perf_counter()
        for _ in range(batch):
            state = self.workload.setup(self.seed)
        self.times.append((perf_counter() - t0) / batch)
        self.fingerprints.add(self.workload.fingerprint(state))
        return state

    def between_repeats(self) -> None:
        if len(self.times) < self.workload.setup_repeats:
            self.one()

    def finish(self, problems) -> None:
        while len(self.times) < self.workload.setup_repeats:
            self.one()
        if len(self.fingerprints) != 1:
            problems.append(f"{len(self.fingerprints)} different set-ups "
                            "at one seed")


def _fresh_heap() -> None:
    # Each repeat starts from the same collector state: nothing left over
    # from the previous repeat, and the long-lived set-up objects frozen
    # out of the collector's scans.
    gc.collect()


def timed_repeats(workload, state, reference, seconds: float, setups):
    from workloads import Clock
    measurements, walls = [], []
    start = perf_counter()
    while len(walls) < MIN_REPEATS or perf_counter() - start < seconds:
        _fresh_heap()
        clock = Clock()
        measurements.append(workload.execute(state, clock, reference))
        walls.append(clock.seconds)
        setups.between_repeats()
    return measurements, walls


def traced_repeats(workload, state, reference, seconds: float, setups):
    from workloads import Clock
    tracer = Tracer()
    measurements, plain, traced = [], [], []
    start = perf_counter()
    while (len(traced) < MIN_TRACED_REPEATS
           or perf_counter() - start < seconds):
        _fresh_heap()
        clock = Clock()
        measurements.append(workload.execute(state, clock, reference))
        plain.append(clock.seconds)
        _fresh_heap()
        clock = Clock(tracer)
        tracer.install()
        try:
            measurement = workload.execute(state, clock, reference)
        finally:
            tracer.uninstall()
        measurements.append(measurement)
        traced.append(clock.seconds)
        tracer.add_perf(measurement.perf)
        setups.between_repeats()
    return tracer, measurements, plain, traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, plain, traced) -> dict:
    n = tracer.repeats
    perf = tracer.perf
    metrics = tracer.layer_metrics()
    get = perf.get
    metrics.update({
        "experiments.baseline_hit_ratio": _ratio(
            tracer.baseline_lookups - tracer.baseline_runs,
            tracer.baseline_lookups),
        "mpisim.plan_repeat_ratio": _ratio(tracer.plan_repeats,
                                           tracer.plan_calls),
        "storage.read_share": _ratio(tracer.pfs_reads,
                                     tracer.pfs_reads + tracer.pfs_writes),
        "network.route_repeat_ratio": _ratio(tracer.route_repeats,
                                             tracer.route_calls),
        "simcore.engine.events": get("events_processed", 0) / n,
        "simcore.engine.timer_waste_ratio": _ratio(
            get("timers_cancelled", 0),
            get("events_processed", 0) + get("timers_cancelled", 0)),
        "simcore.fairshare.flows_per_refill": _ratio(
            get("flows_touched", 0), get("rate_recomputations", 0)),
        "simcore.fairshare.fill_hit_ratio": _ratio(
            get("fill_cache_hits", 0),
            get("fill_cache_hits", 0) + get("fill_partial_refills", 0)
            + get("fill_cache_misses", 0)),
        "core.decisions": get("coord_decisions", 0) / n,
        "core.exchanges_per_round": _ratio(get("coord_exchanges", 0),
                                           get("coord_rounds", 0)),
        "service.protocol.bytes_per_frame": _ratio(tracer.bytes_encoded,
                                                   tracer.frames_encoded),
        "perf.calls": tracer.bumps / n,
        "trace.overhead_ratio": statistics.median(traced)
        / statistics.median(plain),
        "trace.spans": len(tracer.sp_t0) / n,
    })
    # Round time that no layer accounts for: socket, event loop and
    # sequencer (service replay only; 0 where no client request runs).
    metrics["service.wait_s"] = tracer.uncovered_round_s()
    return metrics


def end_to_end_metrics(workload, measurements, walls, setup_times) -> dict:
    """Timings of the best repeat and of the best set-up sample.

    Other tenants of the host slow a repeat or a set-up down by up to half
    again, in stretches that last seconds to minutes, and never speed one
    up.  The median of a run follows that load; the best sample is the
    least disturbed estimate of what the code costs, and it is what keeps
    two sets of runs of the same code within the bounds.  Round
    percentiles follow the same rule per workload (see ``round_times``).
    """
    return {
        "wall_s": min(walls),
        "setup_s": min(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "decisions_per_s": max(m.decisions / wall
                               for m, wall in zip(measurements, walls)),
        "round_p50_ms": workload.round_times(measurements, 0.50) * 1e3,
        "round_p99_ms": workload.round_times(measurements, 0.99) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_package():
        print(f"perfbench: no package sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Pin the wire codec: the environment must not change what is measured.
    os.environ["REPRO_WIRE_CODEC"] = "binary"
    from workloads import WORKLOADS, WHY

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    problems = []
    setups = SetUps(workload, args.seed)
    state = setups.one()
    reference = workload.warmup(state, problems)
    gc.collect()
    gc.freeze()
    golden = recorded_digest(args.workload, args.seed)
    if golden is not None and golden != reference:
        problems.append(f"digest {reference[:16]} differs from the one "
                        f"recorded at seed {args.seed} ({golden[:16]})")

    if args.trace:
        tracer, measurements, plain, traced = traced_repeats(
            workload, state, reference, args.seconds, setups)
        setups.finish(problems)
        walls = traced
        metrics = layer_metrics(tracer, plain, traced)
        rows = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        if abs(rows - metrics["trace.wall_s"]) > 1e-9 * rows:
            problems.append(f"layer rows sum to {rows} s, traced wall is "
                            f"{metrics['trace.wall_s']} s")
    else:
        measurements, walls = timed_repeats(workload, state, reference,
                                            args.seconds, setups)
        setups.finish(problems)
        metrics = end_to_end_metrics(workload, measurements, walls,
                                     setups.times)
    # Report exactly the metrics BENCHMARK.json declares, in its order and
    # with its units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError("metrics do not match BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    metrics = {name: metrics[name] for name in units}
    attempted = sum(m.ops for m in measurements)
    # A failed set-up, warm-up or recorded-digest check taints every
    # operation of the run; otherwise each repeat counts its own failures.
    failed = attempted if problems else sum(m.failed for m in measurements)
    for m in measurements:
        problems.extend(m.problems)

    fingerprint = host_fingerprint()
    q1, q3 = quartiles(walls)
    latencies = [s for m in measurements for s in m.latencies]
    print(f"workload {args.workload} seed {args.seed}: {WHY[args.workload]}")
    print("host " + json.dumps(fingerprint, sort_keys=True))
    print(f"set-up: best {min(setups.times):.5f} s, median "
          f"{statistics.median(setups.times):.5f} s over {len(setups.times)} "
          f"samples of {workload.setup_batch}")
    print(f"wall: best {min(walls):.4f} s, median "
          f"{statistics.median(walls):.4f} s, quartiles "
          f"{q1:.4f}-{q3:.4f} s over {len(walls)} "
          f"{'traced ' if args.trace else ''}repeats; "
          f"{len(latencies)} latency samples")
    print(f"failed_frac {failed / max(1, attempted):.6f} "
          f"({failed} of {attempted} operations)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:16.6f} {units[name]}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(OUT / f"{stem}-spans.npz")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "host": fingerprint,
              "digest": reference, "setup_samples": setups.times,
              "wall_samples": walls, "problems": problems,
              "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

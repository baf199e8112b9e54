"""The simulator against the closed-form §II-C model.

On one server with client-side caps per core and no MPI shuffle cost, the
fluid-flow simulator must reproduce the paper's proportional-sharing
physics exactly: under the interfere strategy every application's write
time is :func:`~repro.core.sharing.interfere_times`, and under FCFS it is
a serial arrival-order schedule where each application drains alone at
``min(N·c, S)``.  Each seed draws N = 2–8 contiguous applications with
random sizes, core counts and start offsets; the first is always
client-limited alone (N·c < S) and the second file-system-limited.

Interruption is not checked here: preemption takes effect only at hook
points, so its timing depends on the round grain, not on §II-C.
"""

import math

import numpy as np
import pytest

from repro.apps import IORConfig
from repro.core.sharing import interfere_times
from repro.experiments import ExperimentEngine, ExperimentSpec
from repro.mpisim import Contiguous
from repro.platforms import PlatformConfig

#: 1 GB/s file system, 10 MB/s per core: 100 cores saturate it.  An
#: infinite MPI bandwidth removes the two-phase shuffle (12.5% of the
#: write otherwise), and zero latency removes per-request message time,
#: leaving only the sharing physics.
PLATFORM = PlatformConfig(name="sharing-oracle", nservers=1,
                          disk_bandwidth=1e9, per_core_bandwidth=1e7,
                          mpi_per_core_bandwidth=math.inf, latency=0.0)
S = PLATFORM.aggregate_bandwidth
C = PLATFORM.per_core_bandwidth

#: Relative tolerance.  Measured worst case over 315 draws (45 seeds for
#: each N = 2–8): 1.7e-15 for interfere and 1.7e-15 for FCFS — the
#: simulator matches the model to rounding.
REL = 1e-12

SEEDS = range(5)
ENGINE = ExperimentEngine()


def draw(n, seed):
    rng = np.random.default_rng([n, seed])
    apps = []
    for i in range(n):
        low, high = ((8, 100) if i == 0 else (101, 257) if i == 1
                     else (8, 257))
        apps.append(IORConfig(
            name=f"app{i}", nprocs=int(rng.integers(low, high)),
            pattern=Contiguous(block_size=int(rng.integers(1, 17)) * 10**6),
            grain=None, start_time=float(rng.uniform(0.0, 4.0))))
    return apps


def simulate(apps, strategy):
    result = ENGINE.run(ExperimentSpec(platform=PLATFORM,
                                       workloads=tuple(apps),
                                       strategy=strategy,
                                       measure_alone=False))
    return [result.record(a.name).write_time for a in apps]


def serial_times(apps):
    """FCFS: each application runs alone, in arrival order."""
    free, done = 0.0, {}
    for a in sorted(apps, key=lambda a: a.start_time):
        free = (max(a.start_time, free)
                + a.bytes_per_phase / min(a.nprocs * C, S))
        done[a.name] = free - a.start_time
    return [done[a.name] for a in apps]


@pytest.mark.parametrize("n", range(2, 9))
def test_interfere_matches_proportional_sharing(n):
    for seed in SEEDS:
        apps = draw(n, seed)
        expected = interfere_times(
            S, [a.start_time for a in apps],
            [a.bytes_per_phase for a in apps], [a.nprocs for a in apps],
            [a.nprocs * C for a in apps])
        assert simulate(apps, "interfere") == pytest.approx(expected,
                                                            rel=REL)


@pytest.mark.parametrize("n", range(2, 9))
def test_fcfs_matches_serial_schedule(n):
    for seed in SEEDS:
        apps = draw(n, seed)
        assert simulate(apps, "fcfs") == pytest.approx(serial_times(apps),
                                                       rel=REL)

"""The per-application record of an experiment run.

:class:`AppRecord` is what every
:class:`~repro.experiments.engine.ExperimentResult` holds per workload
name: per-iteration phase, wait, shuffle and write times, plus the
standalone baseline the engine attaches.  Runs themselves go through
:class:`~repro.experiments.engine.ExperimentEngine` — a single
application is ``engine.run(ExperimentSpec.single(platform, cfg))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..apps import IORApp

__all__ = ["AppRecord"]


@dataclass
class AppRecord:
    """Measured outcome of one application in one experiment."""

    name: str
    nprocs: int
    write_times: List[float]      #: per-iteration I/O-phase durations
    wait_times: List[float]       #: per-iteration time blocked in CALCioM
    comm_times: List[float]       #: per-iteration shuffle time
    io_write_times: List[float]   #: per-iteration pure write time
    t_alone: Optional[float] = None  #: standalone single-phase baseline

    @property
    def write_time(self) -> float:
        """First-phase duration (the Δ-graph y-value)."""
        return self.write_times[0]

    @property
    def interference_factor(self) -> float:
        """I = T / T(alone) for the first phase (>= 1 under contention)."""
        if self.t_alone is None or self.t_alone <= 0:
            raise ValueError(f"no standalone baseline for {self.name!r}")
        return self.write_time / self.t_alone

    @classmethod
    def from_app(cls, app: IORApp, t_alone: Optional[float] = None) -> "AppRecord":
        return cls(
            name=app.config.name,
            nprocs=app.config.nprocs,
            write_times=[p.duration for p in app.phases],
            wait_times=[p.wait_time for p in app.phases],
            comm_times=[p.comm_time for p in app.phases],
            io_write_times=[p.write_time for p in app.phases],
            t_alone=t_alone,
        )

"""Δ-graph experiments (§II-C).

"Application A starts writing at a reference date t = 0, application B
starts at a date t = dt, and we measure the performance of A and B.  A set
of experiments with different values of dt allows us to plot the measured
performance as a function of dt."

:class:`DeltaGraph` holds the full series of one dt sweep — write times,
interference factors, and (optionally) the analytic expected curve;
:meth:`~repro.experiments.engine.ExperimentEngine.delta_graph` builds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .runner import PairResult

__all__ = ["DeltaGraph"]


@dataclass
class DeltaGraph:
    """One Δ-graph: per-dt measurements for a pair of applications."""

    dts: np.ndarray
    t_a: np.ndarray             #: A's first-phase write times
    t_b: np.ndarray
    t_alone_a: float
    t_alone_b: float
    strategy: Optional[str]
    expected_a: Optional[np.ndarray] = None
    expected_b: Optional[np.ndarray] = None
    pairs: List[PairResult] = field(default_factory=list)

    @property
    def interference_a(self) -> np.ndarray:
        """A's interference factor I(dt) = T_A(dt) / T_A(alone)."""
        return self.t_a / self.t_alone_a

    @property
    def interference_b(self) -> np.ndarray:
        return self.t_b / self.t_alone_b

    def max_interference_b(self) -> float:
        return float(self.interference_b.max())

    def rows(self):
        """(dt, T_A, T_B, I_A, I_B) tuples, for table printing."""
        return list(zip(self.dts, self.t_a, self.t_b,
                        self.interference_a, self.interference_b))

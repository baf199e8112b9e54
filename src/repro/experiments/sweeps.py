"""Parameter-sweep helpers shared by Fig 4/6/9 benchmarks.

:func:`split_pairs` is the pure helper; the sweeps themselves run through
:meth:`~repro.experiments.engine.ExperimentEngine.size_split_sweep` and
:meth:`~repro.experiments.engine.ExperimentEngine.strategy_comparison`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["split_pairs"]


def split_pairs(total_cores: int, sizes_b: Sequence[int]
                ) -> List[Tuple[int, int]]:
    """Fig 6/9 style splits: (N_A, N_B) with N_A = total - N_B.

    E.g. ``split_pairs(768, [24, 48, 96, 192, 384])`` reproduces the
    paper's G5K division of 768 cores.
    """
    pairs = []
    for nb in sizes_b:
        if not 0 < nb < total_cores:
            raise ValueError(f"invalid split: B={nb} of {total_cores}")
        pairs.append((total_cores - nb, nb))
    return pairs

"""Proportional sharing of one bottleneck (§II-C).

The paper overlays its Δ-graphs with "the expected interference … assuming
a proportional sharing of resources", and the extended dynamic strategy
(§III-A.4, Fig 12) predicts sharing with the same physics: applications
writing at once split the file system's bandwidth S in proportion to
their core counts, and an application never drains faster than its own
client-side ceiling (``N·c`` on the machine, its standalone drain rate in
a strategy's exchanged view), the surplus going to the others.

This module is that model, once: :func:`water_fill` gives the rates of
the applications sharing at one instant, and :func:`interfere_times`
integrates them piecewise over staggered starts.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["water_fill", "interfere_times"]


def water_fill(capacity: float, weights: Sequence[float],
               caps: Sequence[float]) -> List[float]:
    """Weighted max-min share of ``capacity`` with a cap per application.

    Every unfixed application is offered ``weight · residual / Σweight``;
    those whose cap is below their offer are fixed at their cap and leave
    the pool, and the rest is re-offered until nobody is capped.  Returns
    the rates in input order.
    """
    rates = [0.0] * len(weights)
    residual = capacity
    unfixed = list(range(len(weights)))
    while unfixed:
        total_w = sum(weights[i] for i in unfixed)
        share = residual / total_w
        capped = [i for i in unfixed if caps[i] < weights[i] * share]
        if not capped:
            for i in unfixed:
                rates[i] = weights[i] * share
            break
        for i in capped:
            rates[i] = caps[i]
            residual -= caps[i]
            unfixed.remove(i)
    return rates


def interfere_times(capacity: float, starts: Sequence[float],
                    sizes: Sequence[float], weights: Sequence[float],
                    caps: Sequence[float]) -> List[float]:
    """Write times of applications that all share one bottleneck.

    Application ``i`` starts writing ``sizes[i]`` bytes at ``starts[i]``;
    between consecutive starts and completions the writers drain at their
    :func:`water_fill` rates.  Returns each application's time from its
    own start to its last byte, in input order.
    """
    n = len(sizes)
    remaining = [float(s) for s in sizes]
    done = [0.0] * n
    pending = sorted(range(n), key=lambda i: starts[i])
    running: List[int] = []
    t = starts[pending[0]] if pending else 0.0
    while pending or running:
        while pending and starts[pending[0]] <= t:
            i = pending.pop(0)
            if remaining[i] > 0:
                running.append(i)
            else:
                done[i] = starts[i]
        if not running:
            t = starts[pending[0]]
            continue
        rates = water_fill(capacity, [weights[i] for i in running],
                           [caps[i] for i in running])
        finish = [remaining[i] / r for i, r in zip(running, rates)]
        step = min(finish)
        if pending and starts[pending[0]] - t < step:
            # The next arrival comes first: land on its start exactly.
            step = starts[pending[0]] - t
            t = starts[pending[0]]
        else:
            t += step
        still = []
        for i, r, f in zip(running, rates, finish):
            if f <= step:
                done[i] = t
            else:
                remaining[i] -= r * step
                still.append(i)
        running = still
    return [done[i] - starts[i] for i in range(n)]

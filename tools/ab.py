"""A/B the repo benchmark: a base revision against the working tree.

Usage, from anywhere inside the checkout::

    python3 tools/ab.py --base HEAD~1 --pairs 10 --seconds 10

The base revision is checked out into a temporary ``git worktree``.  The
report opens with the commit ids both sides run, the change's marked
``+dirty`` when the working tree has uncommitted changes.  For each
workload, ``--pairs`` pairs of ``perfbench/run.py --seed 7 --trace 0``
runs alternate between the base checkout and this one (base first in even
pairs, the change first in odd ones).  For every end-to-end metric that
``BENCHMARK.json`` declares, the report prints both medians with their
quartiles, the pairs the change won (the direction is the metric's
``better``) and a verdict:

* ``unresolved`` - the base runs' interquartile range exceeds the
  metric's bound, so these runs cannot tell a change that size (unless
  every run of the change beats every base run: ``better``), or there
  are fewer than 3 pairs, too few to have a spread;
* ``worse`` - the change's median is worse than the base's by more than
  the bound;
* ``better`` - the change's median is better by more than the base's
  interquartile range, and the change won at least 9 pairs in 10;
* ``flat`` - anything else.

The exit status is 1 when any run is not ``correct`` or reports failed
operations (or prints no verdict), 130 on Ctrl-C, and 0 otherwise;
verdicts alone never fail the run.  The worktree is removed on every
exit, Ctrl-C and SIGTERM included.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


# -- statistics and verdicts ------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``, inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def pairs_won(base: Sequence[float], change: Sequence[float],
              better: str) -> int:
    """Pairs in which the change is strictly better than the base."""
    if better == "lower":
        return sum(c < b for b, c in zip(base, change))
    return sum(c > b for b, c in zip(base, change))


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """``unresolved``, ``worse``, ``better`` or ``flat`` (module docstring).

    ``bound`` is relative to the base median.
    """
    if len(base) < 3:
        return "unresolved"
    q1, base_med, q3 = quartiles(base)
    change_med = statistics.median(change)
    scale = abs(base_med)
    if q3 - q1 > bound * scale:
        beats_all = (max(change) < min(base) if better == "lower"
                     else min(change) > max(base))
        return "better" if beats_all else "unresolved"
    # Positive when the change is worse, in the metric's own unit.
    loss = change_med - base_med if better == "lower" else base_med - change_med
    if loss > bound * scale:
        return "worse"
    if -loss > q3 - q1 and 10 * pairs_won(base, change, better) >= 9 * len(base):
        return "better"
    return "flat"


def report(workload: str, spec: Sequence[dict],
           runs: Dict[str, List[dict]]) -> List[str]:
    """The report lines of one workload's runs, one line per metric."""
    lines = [f"{workload}: {len(runs['base'])} pairs"]
    for metric in spec:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        base = [r["metrics"][name] for r in runs["base"]]
        change = [r["metrics"][name] for r in runs["change"]]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        delta = f"{(cmed - bmed) / bmed:+.1%}" if bmed else "n/a"
        won = pairs_won(base, change, better)
        lines.append(
            f"  {name:<16} base {bmed:.4g} [{bq1:.4g}, {bq3:.4g}]  "
            f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}]  {delta:>7}  "
            f"won {won}/{len(base)}  {verdict(base, change, better, bound)}")
    return lines


def run_problems(run: Optional[dict]) -> List[str]:
    """Why a run's verdict fails the A/B (empty when it is sound)."""
    if run is None:
        return ["printed no verdict"]
    problems = []
    if run.get("correct") is not True:
        problems.append("correct is not true")
    if run.get("failed", 0) > 0:
        problems.append(f"{run['failed']} failed operations")
    return problems


# -- running ------------------------------------------------------------------
def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def revision(checkout: Path) -> str:
    """The commit ``checkout`` has out, ``+dirty`` if its tree differs."""
    rev = _git(checkout, "rev-parse", "HEAD")
    return rev + "+dirty" if _git(checkout, "status", "--porcelain") else rev


def _run_once(checkout: Path, workload: str,
              seconds: float) -> Optional[dict]:
    """One ``perfbench/run.py --seed 7 --trace 0`` run: its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    run = json.loads(lines[-1])
    run["metrics"] = {k: v["value"] for k, v in run["metrics"].items()}
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    # A SIGTERM unwinds like Ctrl-C, through the worktree cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix="ab-base-"))
    base_tree = tmp / "base"
    bad = 0
    try:
        _git(ROOT, "worktree", "add", "--detach", str(base_tree), args.base)
        checkouts = {"base": base_tree, "change": ROOT}
        print(f"base {revision(base_tree)}  change {revision(ROOT)}",
              flush=True)
        for workload in workloads:
            runs: Dict[str, List[dict]] = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    run = _run_once(checkouts[side], workload, args.seconds)
                    for problem in run_problems(run):
                        bad += 1
                        print(f"{workload} pair {i} {side}: {problem}")
                    if run is not None:
                        runs[side].append(run)
            if len(runs["base"]) == len(runs["change"]) == args.pairs:
                print("\n".join(report(workload, bench["end_to_end"], runs)))
            sys.stdout.flush()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                        "--force", str(base_tree)],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

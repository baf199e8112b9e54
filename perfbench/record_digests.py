"""Record each workload's result digest at a range of seeds.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py --seeds 32

Writes ``perfbench/digests.json``.  ``run.py`` compares a run's digest
with the recorded one whenever its seed is listed there, so an output
change of the program shows as a failed check.  Re-record only when an
output change is intended.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=32,
                        help="record seeds 0 .. N-1 (default 32)")
    args = parser.parse_args(argv)
    if not run._import_package():
        print("record_digests: no package sources", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    digests = {}
    for name, workload in WORKLOADS.items():
        seeds = [0] if name == "paper-figures" else range(args.seeds)
        table = {}
        for seed in seeds:
            problems = []
            digest = workload.warmup(workload.setup(seed), problems)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            table["*" if name == "paper-figures" else str(seed)] = digest
            print(f"{name} seed {seed}: {digest}")
        digests[name] = table
    path = run.HERE / "digests.json"
    path.write_text(json.dumps({"digests": digests}, indent=1,
                               sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

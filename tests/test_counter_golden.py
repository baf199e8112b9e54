"""Perf counters against a golden snapshot.

The coordination and storage counters are plain integers folded into the
``PerfCounters`` bag on read (``PerfCounters.attach``).  Folding must not
change what a run reports: every counter but the ``*_seconds`` timers
equals the value recorded in ``tests/data/perf/golden_counters.json``
when each was a ``bump`` call, and the same counters exist, timers and
the ``coord_*_shard<i>`` twins of a sharded run included.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import ExperimentEngine, build_scenario

_GOLDEN = json.loads((Path(__file__).parent / "data" / "perf"
                      / "golden_counters.json").read_text())


@pytest.mark.parametrize("run", sorted(_GOLDEN))
def test_counters_match_golden(run):
    golden = _GOLDEN[run]
    spec, = build_scenario(golden["scenario"], **golden["kwargs"])
    perf = ExperimentEngine().run(spec).perf
    assert sorted(perf) == golden["keys"]
    assert {k: v for k, v in perf.items()
            if "_seconds" not in k} == golden["perf"]

"""Result export: turn experiment objects into CSV/JSON for external tooling.

The benchmarks print ASCII series; downstream users plotting against the
paper want machine-readable output.  A
:class:`~repro.experiments.engine.ResultSet` exports one row per
(experiment, application) through :func:`result_set_csv`, or in full
through :func:`result_set_json`; :func:`delta_graph_csv` writes one row
per dt of a :class:`~repro.experiments.deltagraph.DeltaGraph`.  These
helpers are intentionally dependency-free (plain strings that
:mod:`csv` and :mod:`json` read back) so results can be shipped
anywhere.
"""

from __future__ import annotations

import io
import json
from typing import Optional

from .deltagraph import DeltaGraph
from .engine import ExperimentResult, ResultSet
from .runner import AppRecord

__all__ = ["delta_graph_csv", "result_set_csv", "result_set_json"]

#: Marker for cells whose value cannot be computed (e.g. no baseline).
MISSING = "n/a"


def _write_rows(header, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_cell(v) for v in row) + "\n")
    return buf.getvalue()


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    text = str(value)
    if any(c in text for c in ',"\n\r'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _record_cells(rec: AppRecord) -> list:
    """The shared per-application cell block: time, baseline, factor, wait.

    A missing baseline (``t_alone is None``) or a degenerate one
    (``t_alone <= 0``, where the factor is undefined) yields an explicit
    :data:`MISSING` cell rather than being silently dropped — note
    ``is not None``: a legitimate ``t_alone == 0.0`` still exports as 0.
    """
    has_baseline = rec.t_alone is not None
    return [
        rec.write_time,
        rec.t_alone if has_baseline else MISSING,
        (rec.interference_factor
         if has_baseline and rec.t_alone > 0 else MISSING),
        rec.wait_times[0] if rec.wait_times else 0.0,
    ]


def delta_graph_csv(graph: DeltaGraph) -> str:
    """One row per dt: write times, interference factors, expected curve."""
    header = ["dt", "t_a", "t_b", "i_a", "i_b"]
    has_expected = graph.expected_a is not None
    if has_expected:
        header += ["expected_a", "expected_b"]
    rows = []
    for i in range(len(graph.dts)):
        row = [float(graph.dts[i]), float(graph.t_a[i]), float(graph.t_b[i]),
               float(graph.interference_a[i]), float(graph.interference_b[i])]
        if has_expected:
            row += [float(graph.expected_a[i]), float(graph.expected_b[i])]
        rows.append(row)
    return _write_rows(header, rows)


def result_set_csv(results: ResultSet) -> str:
    """The uniform export: one row per (experiment, application).

    Campaign coordinates surface as ``dt``; ``experiment`` is the spec's
    name or its index in the set.
    """
    header = ["experiment", "strategy", "dt", "app", "nprocs", "write_time",
              "t_alone", "interference_factor", "wait_time", "makespan"]
    rows = []
    for index, result in enumerate(results):
        spec = result.spec
        label = spec.name or str(index)
        if spec.strategy is None:
            strategy = "none"
        elif isinstance(spec.strategy, str):
            strategy = spec.strategy
        else:
            # Strategy instances have no stable string form; export the
            # class name rather than a repr with a memory address.
            strategy = type(spec.strategy).__name__
        dt = spec.meta.get("dt")
        for name in spec.names:
            rec = result.records[name]
            rows.append([label, strategy,
                         dt if dt is not None else MISSING,
                         name, rec.nprocs]
                        + _record_cells(rec) + [result.makespan])
    return _write_rows(header, rows)


def _record_dict(rec: AppRecord) -> dict:
    return {
        "name": rec.name,
        "nprocs": rec.nprocs,
        "write_times": list(rec.write_times),
        "wait_times": list(rec.wait_times),
        "comm_times": list(rec.comm_times),
        "io_write_times": list(rec.io_write_times),
        "t_alone": rec.t_alone,
    }


def _result_dict(result: ExperimentResult) -> dict:
    return {
        "spec": result.spec.to_dict(),
        "makespan": result.makespan,
        "records": {name: _record_dict(rec)
                    for name, rec in result.records.items()},
        "decisions": [
            {"time": d.time, "app": d.app, "action": d.action.value,
             "active": list(d.active), "waiting": list(d.waiting),
             "costs": dict(d.costs)}
            for d in result.decisions
        ],
    }


def result_set_json(results: ResultSet, indent: Optional[int] = None) -> str:
    """Full-fidelity JSON export: specs, records, and decision logs.

    Specs serialize through ``ExperimentSpec.to_dict`` — named strategies
    only (a :class:`~repro.core.Strategy` instance raises ``TypeError``).
    """
    return json.dumps({"results": [_result_dict(r) for r in results]},
                      indent=indent)

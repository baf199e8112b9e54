"""Golden record of the ADIO layer's guard protocol.

Every ADIO operation runs under a recording :class:`IOGuard`: each
collective operation at every grain, each independent operation guarded
and unguarded, and one contended case where the recorder wraps real
CALCioM sessions (one of them nested inside an application-scoped
``Prepare``).  The record holds every hook's name, its simulated time and
which of the keys a session reads back from an info (``remaining_bytes``,
``rounds``, ``total_bytes``) the hook's info carries, plus every
:class:`WriteStats` field.

The independent operations once recorded no round marks; they now mark
each step like the collective ones.  That is the one difference from the
record this test accepts (see :func:`_same_marks`).

Regenerate with ``PYTHONPATH=src python tests/test_adio_golden.py``.
"""

import dataclasses
import json
from pathlib import Path

from repro.core import CalciomRuntime
from repro.mpisim import ADIOLayer, Communicator, IOGuard, MPIInfo, Strided
from repro.platforms import Platform, PlatformConfig

_GOLDEN = Path(__file__).parent / "data" / "adio" / "guard_protocol.json"

#: The info keys :class:`~repro.core.session.CalciomSession` reads back.
SESSION_KEYS = ("remaining_bytes", "rounds", "total_bytes")
INDEPENDENT = ("write_independent", "write_independent_sieved")
PATTERN = Strided(block_size=500, nblocks=4)


class RecordingGuard(IOGuard):
    """Logs each hook, then delegates to ``inner`` or charges fixed costs."""

    def __init__(self, sim, inner=None, begin_cost=0.5, end_cost=0.25):
        self.sim = sim
        self.inner = inner
        self.begin_cost = begin_cost
        self.end_cost = end_cost
        self.log = []

    def _note(self, hook, info=None):
        keys = [k for k in SESSION_KEYS if info is not None and k in info]
        self.log.append([hook, self.sim.now, keys])

    def prepare(self, info):
        self._note("prepare", info)
        if self.inner is not None:
            self.inner.prepare(info)

    def complete(self):
        self._note("complete")
        if self.inner is not None:
            self.inner.complete()

    def begin_access(self, step_info=None):
        self._note("begin_access", step_info)
        if self.inner is not None:
            yield from self.inner.begin_access(step_info)
        else:
            yield self.sim.timeout(self.begin_cost)

    def end_access(self):
        self._note("end_access")
        if self.inner is not None:
            yield from self.inner.end_access()
        else:
            yield self.sim.timeout(self.end_cost)


def _platform():
    return Platform(PlatformConfig(
        name="golden", nservers=2, disk_bandwidth=200.0,
        per_core_bandwidth=10.0, stripe_size=1000, latency=0.0))


def _layer(platform, name, nprocs=8):
    client = platform.add_client(name, nprocs)
    comm = Communicator(platform.sim, nprocs, alpha=0.0,
                        per_proc_bandwidth=10.0)
    return ADIOLayer(platform.sim, platform.pfs, client, name, comm,
                     cb_buffer_size=1000, naggregators=nprocs)


def _operation(adio, op, knob):
    """The generator for ``op``; ``knob`` is its grain or ``guarded``."""
    if op == "write_collective":
        return adio.write_collective("/f", PATTERN, grain=knob)
    if op == "read_collective":
        return adio.read_collective("/f", PATTERN, grain=knob)
    if op == "write_independent":
        return adio.write_independent("/f", 4000, offset=1000, guarded=knob)
    return adio.write_independent_sieved("/f", PATTERN, buffer_size=1500,
                                         guarded=knob)


def _stats(stats):
    return dataclasses.asdict(stats)


def _single(op, knob):
    platform = _platform()
    adio = _layer(platform, "app")
    guard = adio.guard = RecordingGuard(platform.sim)

    def body():
        if op == "read_collective":
            # Give the read something to read, outside the record.
            yield from adio.write_collective("/f", PATTERN, grain=None)
            guard.log.clear()
            adio.history.clear()
        return (yield from _operation(adio, op, knob))

    proc = platform.sim.process(body())
    stats = platform.sim.run(until=proc)
    return {"hooks": guard.log, "stats": [_stats(stats)]}


def _contended():
    """Two applications on real sessions; B's accesses nest in a phase."""
    platform = _platform()
    runtime = CalciomRuntime(platform, strategy="interrupt")
    layers, guards = {}, {}
    for name, nprocs in (("A", 8), ("B", 4)):
        adio = _layer(platform, name, nprocs)
        session = runtime.session(name, adio.client, nprocs, adio.comm)
        guards[name] = adio.guard = RecordingGuard(platform.sim, session)
        layers[name] = adio

    def app_a():
        yield from layers["A"].write_collective("/a", PATTERN, grain="round")
        yield from layers["A"].write_independent("/a", 3000, offset=16000)

    def app_b():
        adio, guard = layers["B"], guards["B"]
        yield platform.sim.timeout(30.0)
        guard.prepare(MPIInfo(app="B", nprocs=4, files=2,
                              total_bytes=20000, rounds=6))
        yield from guard.begin_access()
        try:
            yield from adio.write_independent_sieved("/b", PATTERN,
                                                     buffer_size=1500)
            yield from adio.write_collective("/c", PATTERN, grain="file")
            yield from adio.read_collective("/c", PATTERN, grain="round")
            yield from guard.end_access()
        finally:
            guard.complete()

    platform.sim.process(app_a())
    platform.sim.process(app_b())
    platform.sim.run()
    return {name: {"hooks": guards[name].log,
                   "stats": [_stats(s) for s in layers[name].history]}
            for name in ("A", "B")}


def record():
    """The whole golden record, rebuilt from the current code."""
    cases = {}
    for op in ("write_collective", "read_collective"):
        for grain in (None, "round", "file"):
            cases[f"{op}/grain={grain}"] = _single(op, grain)
    for op in INDEPENDENT:
        for guarded in (True, False):
            cases[f"{op}/guarded={guarded}"] = _single(op, guarded)
    return {"cases": cases, "contended": _contended()}


def _same_marks(op, got, want):
    """Round marks match, or an independent op newly marks each step."""
    if got["round_marks"] == want["round_marks"]:
        return True
    marks = got["round_marks"]
    return (op in INDEPENDENT and want["round_marks"] == []
            and len(marks) == got["nrounds"] and marks == sorted(marks)
            and want["start"] < marks[0] <= marks[-1] <= got["end"])


def _check_stats(op_of, got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        op = op_of(i)
        assert _same_marks(op, g, w), (op, g, w)
        assert ({k: v for k, v in g.items() if k != "round_marks"}
                == {k: v for k, v in w.items() if k != "round_marks"}), op


def test_single_operations_match_golden():
    golden = json.loads(_GOLDEN.read_text(encoding="utf-8"))["cases"]
    now = record()["cases"]
    assert sorted(now) == sorted(golden)
    for name, want in golden.items():
        op = name.split("/")[0]
        assert now[name]["hooks"] == want["hooks"], name
        _check_stats(lambda _i: op, now[name]["stats"], want["stats"])


def test_contended_sessions_match_golden():
    golden = json.loads(_GOLDEN.read_text(encoding="utf-8"))["contended"]
    now = _contended()
    ops = {"A": ("write_collective", "write_independent"),
           "B": ("write_independent_sieved", "write_collective",
                 "read_collective")}
    for name in ("A", "B"):
        assert now[name]["hooks"] == golden[name]["hooks"], name
        _check_stats(ops[name].__getitem__, now[name]["stats"],
                     golden[name]["stats"])


def test_golden_exercises_waits_and_shuffles():
    """The record is not vacuous: guards block and shuffles cost time."""
    golden = json.loads(_GOLDEN.read_text(encoding="utf-8"))
    cases = golden["cases"]
    assert cases["write_collective/grain=round"]["stats"][0]["wait_time"] > 0
    assert cases["read_collective/grain=file"]["stats"][0]["comm_time"] > 0
    sieved = cases["write_independent_sieved/guarded=True"]
    assert sieved["stats"][0]["nrounds"] > 2
    assert cases["write_independent/guarded=False"]["hooks"] == []
    contended = golden["contended"]
    assert any(s["wait_time"] > 0
               for app in contended.values() for s in app["stats"])


if __name__ == "__main__":
    _GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    _GOLDEN.write_text(json.dumps(record(), indent=1) + "\n",
                       encoding="utf-8")

"""The repo benchmark's tracer hooks still name real functions.

``perfbench/tracer.py`` wraps each layer's entry points by name
(``vars(owner)[attr]``) when a benchmark runs with ``--trace 1``.  A hook
whose function was removed, renamed or changed kind (say, a coroutine
turned into a plain callback) would only fail that traced run.  These
tests load the tracer read-only and check every hook here instead.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
_TARGETS = tracer._targets()


def _name(target):
    owner, attr, _layer, _kind = target
    return f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("target", _TARGETS, ids=[_name(t) for t in _TARGETS])
def test_hook_exists_with_its_declared_kind(target):
    owner, attr, layer, kind = target
    assert layer in tracer.LAYERS
    assert attr in vars(owner), f"{_name(target)} is not defined on its owner"
    fn = vars(owner)[attr]
    if kind == tracer.CORO:
        assert inspect.iscoroutinefunction(fn), f"{_name(target)} is not async"
    elif kind == tracer.GEN:
        assert inspect.isgeneratorfunction(fn), \
            f"{_name(target)} is not a generator function"
    else:
        assert kind == tracer.CALL and callable(fn)


def test_install_uninstall_round_trips():
    from repro.perf import PerfCounters
    from repro.service.protocol import WireEncoder

    originals = {(owner, attr): vars(owner)[attr]
                 for owner, attr, _layer, _kind in _TARGETS}
    bump, encode = PerfCounters.bump, WireEncoder.encode
    hooks = tracer.Tracer()
    hooks.install()
    try:
        for (owner, attr), fn in originals.items():
            assert vars(owner)[attr] is not fn, f"{owner.__name__}.{attr}"
        assert PerfCounters.bump is not bump
        assert WireEncoder.encode is not encode
    finally:
        hooks.uninstall()
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn, f"{owner.__name__}.{attr}"
    assert PerfCounters.bump is bump and WireEncoder.encode is encode

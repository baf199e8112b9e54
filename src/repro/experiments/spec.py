"""Declarative experiment descriptions.

Every figure in the paper is "run a set of applications under a
coordination setup and compare against standalone baselines".  This module
captures that as data: an :class:`~repro.apps.IORConfig` describes one
application, and an :class:`ExperimentSpec` bundles a platform, a
workload list, and a strategy into one runnable, JSON-round-trippable
unit.  Campaigns (Δ-graphs, size-split sweeps, policy comparisons) are
plain lists of specs, which is what lets the engine fan them out across
processes.

Serialization rules
-------------------
``to_dict``/``from_dict`` round-trip through plain dicts of JSON types
(``to_json``/``from_json`` wrap :mod:`json`); workloads and platforms go
through :func:`workload_to_dict`/:func:`platform_to_dict` and their
inverses, and every decoder raises ``ValueError`` naming any unknown or
missing keys.  Access patterns serialize as ``{"kind":
"contiguous"|"strided", ...}``; infinite bandwidths encode as the string
``"inf"``.  Strategies must be *named* (``"fcfs"``, ``"dynamic"``, ...)
to serialize — :class:`~repro.core.Strategy` instances are accepted at
runtime but rejected by ``to_dict``.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..apps import IORConfig
from ..core import CalciomRuntime
from ..mpisim import AccessPattern, Contiguous, Strided
from ..platforms import PlatformConfig

__all__ = [
    "ExperimentSpec",
    "pattern_to_dict", "pattern_from_dict",
    "platform_to_dict", "platform_from_dict",
    "workload_to_dict", "workload_from_dict",
]

BASELINE_NAME = "_alone"  #: canonical workload name for standalone runs

#: Keys accepted in ``ExperimentSpec.arbiter``: the keyword options of
#: :class:`~repro.core.CalciomRuntime` (everything but platform/strategy).
_ARBITER_OPTIONS = tuple(
    name for name in inspect.signature(CalciomRuntime).parameters
    if name not in ("platform", "strategy"))


# ---------------------------------------------------------------------------
# Pattern and platform (de)serialization
# ---------------------------------------------------------------------------

def _check_keys(what: str, data: Any, known: Iterable[str],
                required: Iterable[str]) -> None:
    """Raise ``ValueError`` naming every unknown and every missing key."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a dict, got {type(data).__name__}")
    known = set(known)
    problems = []
    unknown = set(data) - known
    if unknown:
        problems.append(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        problems.append(f"missing {what} fields: {sorted(missing)}")
    if problems:
        raise ValueError("; ".join(problems)
                         + f"; accepted: {sorted(known)}")


def _dataclass_keys(cls) -> Tuple[List[str], List[str]]:
    """(all field names, names of the fields without a default)."""
    names = [f.name for f in fields(cls)]
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    return names, required


def pattern_to_dict(pattern: AccessPattern) -> Dict[str, Any]:
    """Serialize an access pattern to a plain dict."""
    if isinstance(pattern, Strided):
        return {"kind": "strided", "block_size": pattern.block_size,
                "nblocks": pattern.nblocks}
    if isinstance(pattern, Contiguous):
        return {"kind": "contiguous", "block_size": pattern.block_size}
    raise TypeError(f"cannot serialize pattern {pattern!r}")


def pattern_from_dict(data: Dict[str, Any]) -> AccessPattern:
    """Inverse of :func:`pattern_to_dict`."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "contiguous":
        _check_keys("pattern", data, ("kind", "block_size"),
                    ("kind", "block_size"))
        return Contiguous(block_size=int(data["block_size"]))
    if kind == "strided":
        _check_keys("pattern", data, ("kind", "block_size", "nblocks"),
                    ("kind", "block_size"))
        return Strided(block_size=int(data["block_size"]),
                       nblocks=int(data.get("nblocks", 1)))
    raise ValueError(f"unknown pattern kind {kind!r}; accepted: "
                     "['contiguous', 'strided']")


def _encode_value(value: Any) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _decode_float(value: Any) -> float:
    if value == "inf":
        return math.inf
    return float(value)


def platform_to_dict(cfg: PlatformConfig) -> Dict[str, Any]:
    """Serialize a :class:`~repro.platforms.PlatformConfig`."""
    return {f.name: _encode_value(getattr(cfg, f.name))
            for f in fields(PlatformConfig)}


#: Fields decoded through :func:`_decode_float` — derived from the
#: dataclass annotations so new float fields round-trip automatically.
_PLATFORM_FLOAT_FIELDS = frozenset(
    f.name for f in fields(PlatformConfig) if "float" in str(f.type))


def platform_from_dict(data: Dict[str, Any]) -> PlatformConfig:
    """Inverse of :func:`platform_to_dict`."""
    _check_keys("platform", data, *_dataclass_keys(PlatformConfig))
    kwargs = dict(data)
    for key in _PLATFORM_FLOAT_FIELDS:
        if key in kwargs and kwargs[key] is not None:
            kwargs[key] = _decode_float(kwargs[key])
    return PlatformConfig(**kwargs)


# ---------------------------------------------------------------------------
# Workload (de)serialization
# ---------------------------------------------------------------------------

def workload_to_dict(cfg: IORConfig) -> Dict[str, Any]:
    """Serialize an :class:`~repro.apps.IORConfig` to a plain dict."""
    data = {f.name: getattr(cfg, f.name) for f in fields(IORConfig)}
    data["pattern"] = pattern_to_dict(cfg.pattern)
    return data


def workload_from_dict(data: Dict[str, Any]) -> IORConfig:
    """Inverse of :func:`workload_to_dict`."""
    _check_keys("workload", data, *_dataclass_keys(IORConfig))
    kwargs = dict(data)
    kwargs["pattern"] = pattern_from_dict(kwargs["pattern"])
    return IORConfig(**kwargs)


# ---------------------------------------------------------------------------
# ExperimentSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: N workloads on a fresh platform under one strategy.

    ``meta`` carries free-form campaign coordinates (``{"dt": 2.0,
    "split": 24}``) that survive serialization and let
    :class:`~repro.experiments.engine.ResultSet` regroup fan-out results.

    ``arbiter`` carries coordination-layer options forwarded to
    :class:`~repro.core.CalciomRuntime`: ``{"decision_log_limit": 10000}``
    caps the decision log for scale scenarios, ``{"shards": 8, "workers":
    "process"}`` runs each arbiter shard in its own worker process (the
    engine closes the worker pool on both the clean and the error path),
    and ``coordination_latency`` overrides the message latency.  Unknown
    keys raise ``ValueError`` when the spec is built; the options are
    unused when ``strategy`` is None.
    """

    platform: PlatformConfig
    workloads: Tuple[IORConfig, ...]
    strategy: Optional[Any] = None     #: strategy name, Strategy, or None
    name: str = ""
    measure_alone: bool = True
    meta: Dict[str, Any] = field(default_factory=dict)
    arbiter: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        workloads = tuple(self.workloads)
        object.__setattr__(self, "workloads", workloads)
        for w in workloads:
            if not isinstance(w, IORConfig):
                raise TypeError(f"expected IORConfig, got {type(w)!r}")
        if not workloads:
            raise ValueError("an experiment needs at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate application names in {names}")
        unknown = set(self.arbiter) - set(_ARBITER_OPTIONS)
        if unknown:
            raise ValueError(
                f"unknown arbiter options: {sorted(unknown)}; accepted: "
                f"{list(_ARBITER_OPTIONS)}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def single(cls, platform: PlatformConfig, workload: IORConfig,
               strategy: Optional[Any] = None, **kw) -> "ExperimentSpec":
        return cls(platform=platform, workloads=(workload,),
                   strategy=strategy, **kw)

    @classmethod
    def pair(cls, platform: PlatformConfig, a: IORConfig, b: IORConfig,
             dt: float = 0.0, strategy: Optional[Any] = None,
             **kw) -> "ExperimentSpec":
        """A two-application experiment with B offset by ``dt``.

        Negative ``dt`` shifts A instead (start times must be >= 0); the
        signed dt is kept in ``meta["dt"]`` — the Δ-graph x-coordinate.
        """
        dt = float(dt)
        if dt >= 0:
            a, b = a.with_(start_time=0.0), b.with_(start_time=dt)
        else:
            a, b = a.with_(start_time=-dt), b.with_(start_time=0.0)
        meta = dict(kw.pop("meta", ()) or {})
        meta.setdefault("dt", dt)
        return cls(platform=platform, workloads=(a, b), strategy=strategy,
                   meta=meta, **kw)

    # -- accessors ---------------------------------------------------------
    @property
    def names(self) -> List[str]:
        return [w.name for w in self.workloads]

    @property
    def dt(self) -> Optional[float]:
        """The Δ-graph offset, when this spec belongs to a dt sweep."""
        return self.meta.get("dt")

    def workload(self, name: str) -> IORConfig:
        for w in self.workloads:
            if w.name == name:
                return w
        raise KeyError(name)

    def with_(self, **changes) -> "ExperimentSpec":
        return replace(self, **changes)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        if not (self.strategy is None or isinstance(self.strategy, str)):
            raise TypeError(
                f"strategy {self.strategy!r} is not JSON-serializable; "
                "use a named strategy ('fcfs', 'interrupt', 'dynamic', ...)"
            )
        return {
            "name": self.name,
            "platform": platform_to_dict(self.platform),
            "workloads": [workload_to_dict(w) for w in self.workloads],
            "strategy": self.strategy,
            "measure_alone": self.measure_alone,
            "meta": dict(self.meta),
            "arbiter": dict(self.arbiter),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        _check_keys("experiment spec", data, *_dataclass_keys(cls))
        return cls(
            name=data.get("name", ""),
            platform=platform_from_dict(data["platform"]),
            workloads=tuple(workload_from_dict(w)
                            for w in data["workloads"]),
            strategy=data.get("strategy"),
            measure_alone=data.get("measure_alone", True),
            meta=dict(data.get("meta", {})),
            arbiter=dict(data.get("arbiter", {})),
        )

    def to_json(self, **dumps_kw) -> str:
        return json.dumps(self.to_dict(), **dumps_kw)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))


def baseline_spec(platform: PlatformConfig,
                  workload: IORConfig) -> ExperimentSpec:
    """The normalized standalone run for one workload (cache key shape)."""
    w = workload.with_(start_time=0.0, name=BASELINE_NAME)
    return ExperimentSpec(platform=platform, workloads=(w,), strategy=None,
                          name="baseline", measure_alone=False,
                          meta={"baseline": True})

"""Discrete-event simulation kernel.

A from-scratch, SimPy-flavoured engine: generator processes, one-shot
events, condition composition, interrupts, counting resources, stores, and —
the piece everything else leans on — a fluid-flow weighted max-min bandwidth
allocator (:mod:`repro.simcore.fairshare`).
"""

from .engine import Simulator, Timer
from .errors import Interrupt, SimulationError
from .events import AllOf, AnyOf, Condition, Event, Timeout
from .fairshare import FluidFlow, FluidLink, FlowNetwork
from .monitor import TimeSeries
from .process import Process
from .resources import Request, Resource, Store
from .rng import ensure_rng, substream

__all__ = [
    "Simulator", "Timer",
    "Event", "Timeout", "Condition", "AllOf", "AnyOf",
    "Process", "Interrupt", "SimulationError",
    "Resource", "Request", "Store",
    "FluidLink", "FluidFlow", "FlowNetwork",
    "TimeSeries", "substream", "ensure_rng",
]

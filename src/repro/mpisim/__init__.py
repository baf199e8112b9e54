"""Simulated MPI + MPI-IO: communicators, patterns, two-phase I/O, ADIO."""

from .adio import ADIOLayer, IOGuard, NullGuard, WriteStats
from .communicator import Communicator
from .datatypes import AccessPattern, Contiguous, Strided
from .info import MPIInfo
from .sieving import SievePlan, plan_data_sieving
from .twophase import CollectivePlan, CollectiveRound, plan_collective_write

__all__ = [
    "Communicator", "MPIInfo", "AccessPattern", "Contiguous", "Strided",
    "CollectivePlan", "CollectiveRound", "plan_collective_write",
    "ADIOLayer", "IOGuard", "NullGuard", "WriteStats",
    "SievePlan", "plan_data_sieving",
]

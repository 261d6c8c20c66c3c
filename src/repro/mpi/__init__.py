"""Simulated MPI substrate: thread-per-rank SPMD with metered traffic."""

from .meter import Meter, RankStats, payload_bytes
from .simmpi import Comm, NeighborComm, Request, run_spmd

__all__ = [
    "Comm",
    "NeighborComm",
    "Request",
    "run_spmd",
    "Meter",
    "RankStats",
    "payload_bytes",
]

"""Discrete-event simulation engine.

A minimal, fast, deterministic event loop: integer-nanosecond timestamps,
a binary heap keyed on ``(time, sequence)`` and cancellable event handles.
Every higher layer (PHY, MAC, traffic) schedules callbacks here.
"""

from repro.sim.engine import EventHandle, Simulator, SimulationError

__all__ = [
    "Simulator",
    "EventHandle",
    "SimulationError",
]

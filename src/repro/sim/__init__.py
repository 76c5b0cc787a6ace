"""Discrete-event simulation engine.

A minimal, fast, deterministic event loop: integer-nanosecond timestamps,
a binary heap keyed on ``(time, sequence)`` whose entries are the event
handles :meth:`Simulator.cancel` takes.
Every higher layer (PHY, MAC, traffic) schedules callbacks here.
"""

from repro.sim.engine import Simulator, SimulationError

__all__ = [
    "Simulator",
    "SimulationError",
]

"""Discrete-event simulation kernel: engine, processes, resources, tracking."""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, Event, EventState, Timeout
from repro.sim.process import Process
from repro.sim.resources import Acquire, Resource, Store
from repro.sim.tracking import StepSeries

__all__ = [
    "Acquire",
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "EventState",
    "Process",
    "Resource",
    "StepSeries",
    "Store",
]

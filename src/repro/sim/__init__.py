"""Discrete-event simulation kernel.

A deliberately small, deterministic event-driven kernel in the style of
SimPy: simulated activities are Python generators that ``yield`` events;
the :class:`~repro.sim.engine.Engine` advances simulated time by draining a
binary-heap event queue.  Determinism is guaranteed by a monotonically
increasing sequence number used as a tie-breaker for simultaneous events,
and by sourcing all randomness from named, seeded RNG streams
(:mod:`repro.sim.rng`).
"""

from repro.sim.engine import Engine, Event, Process, Timeout
from repro.sim.primitives import AllOf, AnyOf, all_of, any_of
from repro.sim.resources import FifoResource, ServerQueue, Store
from repro.sim.rng import RngStreams
from repro.sim.trace import Recorder, Span

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "AnyOf",
    "all_of",
    "any_of",
    "FifoResource",
    "ServerQueue",
    "Store",
    "RngStreams",
    "Recorder",
    "Span",
]

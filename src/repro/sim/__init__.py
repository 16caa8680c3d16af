"""Discrete-event simulation kernel (Rainbow's execution substrate)."""

from repro.sim.kernel import (
    AllOf,
    AllSettled,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.randoms import RandomStreams, zipf_weights

__all__ = [
    "AllOf",
    "AllSettled",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "Timeout",
    "RandomStreams",
    "zipf_weights",
]

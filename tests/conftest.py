"""Shared fixtures and helpers for the Rainbow test suite."""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.core.config import RainbowConfig
from repro.core.instance import RainbowInstance
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.network import Endpoint, Network
from repro.sim.kernel import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def network(sim: Simulator) -> Network:
    return Network(sim, ConstantLatency(1.0))


def drive(sim: Simulator, generator, name: str = "test"):
    """Run ``generator`` as a process to completion; return its value."""
    process = sim.process(generator, name=name)
    return sim.run(until=process)


def run_cli(*args: str) -> str:
    """Run the ``repro`` CLI in this process; return its stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(args)) == 0
    return out.getvalue()


def inbox(endpoint: Endpoint) -> list[Message]:
    """Serve ``endpoint`` into a list: each delivered request is appended."""
    messages: list[Message] = []
    endpoint.handler = messages.append
    return messages


def quick_instance(
    n_sites: int = 4,
    n_items: int = 16,
    replication_degree: int = 3,
    *,
    rcp: str = "QC",
    ccp: str = "2PL",
    acp: str = "2PC",
    seed: int = 1,
    settle_time: float = 60.0,
    **overrides,
) -> RainbowInstance:
    """A small ready-made instance for integration tests."""
    config = RainbowConfig.quick(
        n_sites=n_sites,
        n_items=n_items,
        replication_degree=replication_degree,
        seed=seed,
        settle_time=settle_time,
    )
    config.protocols.rcp = rcp
    config.protocols.ccp = ccp
    config.protocols.acp = acp
    for key, value in overrides.items():
        setattr(config, key, value)
    return RainbowInstance(config)

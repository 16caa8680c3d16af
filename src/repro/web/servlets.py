"""The web middle tier: ServletRunners and the six Rainbow servlets.

"The middle tier consists of a number of servlets, i.e. server side threads
living in the ServletRunner … The servlets are: NSRunnerlet, NSlet,
SiteRunnerlet, Sitelet, WLGlet, and PMlet."

Placement rules reproduced from the paper:

* every host in the Rainbow domain runs a :class:`ServletRunner`;
* the *home host* must run ``NSRunnerlet``, ``SiteRunnerlet``, ``WLGlet``
  and ``PMlet`` — they are the GUI applet's jump-off points, because the
  applet "can only communicate with the host it is downloaded from";
* ``NSlet`` lives only on the name server's host; one ``Sitelet`` per host
  that has Rainbow sites (co-located sites share it).

Level-one servlets forward to level-two servlets over the simulated
network, so management traffic is measured like any other traffic.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import NetworkError, RpcTimeout, WebTierError
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.web.requests import WebRequest, WebResponse

__all__ = ["Servlet", "ServletRunner"]

RUNNER_NAME = "servletrunner"


class Servlet:
    """Base class: a named server-side handler living in a ServletRunner."""

    name = "servlet"

    def attach(self, runner: "ServletRunner") -> None:
        """Called when the servlet is installed into its runner."""
        self.runner = runner

    def handle(self, request: WebRequest) -> Generator:
        """Process ``request``; generator returning a :class:`WebResponse`."""
        raise NotImplementedError
        yield  # pragma: no cover - generator marker


class ServletRunner:
    """The lightweight servlet-enabling web server, one per domain host."""

    def __init__(self, sim: Simulator, network: Network, host: str):
        self.sim = sim
        self.network = network
        self.host = host
        self.name = f"runner-{host}"  # fault-injector target id
        self.endpoint = network.endpoint(host, RUNNER_NAME, handler=self._on_request)
        self.servlets: dict[str, Servlet] = {}
        self.requests_served = 0
        self.up = True

    # -- lifecycle -----------------------------------------------------------
    # "It is essential that the Rainbow home host must have the
    # ServletRunner running at all times" — precisely because this can
    # happen: a crashed runner makes its host's management plane (and, on
    # the home host, the whole GUI) unreachable until restart.
    def crash(self) -> None:
        """Stop the web server; in-flight requests are lost."""
        if not self.up:
            return
        self.up = False
        self.endpoint.set_down()

    def recover(self) -> None:
        """Restart the web server (servlet registrations survive)."""
        if self.up:
            return
        self.up = True
        self.endpoint.set_up()

    @property
    def address(self) -> str:
        """The runner's network address (``host/servletrunner``)."""
        return self.endpoint.address

    def install(self, servlet: Servlet) -> None:
        """Install a servlet; names are unique per runner."""
        if servlet.name in self.servlets:
            raise WebTierError(f"servlet {servlet.name!r} already on host {self.host}")
        servlet.attach(self)
        self.servlets[servlet.name] = servlet

    def has(self, name: str) -> bool:
        return name in self.servlets

    # -- serving ---------------------------------------------------------------
    def _on_request(self, msg: Message) -> None:
        """Endpoint handler: run each WEB_REQUEST as its own process."""
        if msg.mtype != MessageType.WEB_REQUEST:
            return
        self.requests_served += 1
        self.sim.process(self._dispatch(msg), name=f"runner:{self.host}:req")

    def _dispatch(self, msg: Message):
        request = WebRequest.from_payload(msg.payload or {})
        servlet = self.servlets.get(request.servlet)
        if servlet is None:
            response = WebResponse.failure(
                f"no servlet {request.servlet!r} on host {self.host}"
            )
        else:
            try:
                response = yield from servlet.handle(request)
            except WebTierError as error:
                response = WebResponse.failure(str(error))
        self.endpoint.reply(msg, MessageType.WEB_REPLY, response.to_payload())

    # -- forwarding (level 1 -> level 2) ---------------------------------------------
    def forward(
        self,
        host: str,
        servlet: str,
        action: str,
        args: dict,
        token: Optional[str] = None,
        timeout: float = 60.0,
    ):
        """Relay a request to the ServletRunner on another host (generator)."""
        address = f"{host}/{RUNNER_NAME}"
        payload = WebRequest(servlet=servlet, action=action, args=args, token=token)
        try:
            reply = yield self.endpoint.request(
                address, MessageType.WEB_REQUEST, payload.to_payload(), timeout=timeout
            )
        except (RpcTimeout, NetworkError) as failure:
            return WebResponse.failure(f"forward to {address} failed: {failure}")
        return WebResponse.from_payload(reply.payload)

"""The Rainbow name server.

"The name server stores metadata of all Rainbow sites, such as the id and
end point specifications.  Also maintained in the name server are the
database fragmentation, replication and distribution schema.  Any site can
query the name server to get pertinent information."

The name server is a normal networked component: it owns an endpoint whose
handler answers ``NS_*`` requests as they are delivered, and is crashable by
the fault injector.  There is exactly one name server per Rainbow instance
(as in the paper); its metadata survives crashes (it is the *service* that
goes down, not the catalog).

Sites fetch the schema once, at bring-up, and the schema is read-only while
they run, so every ``NS_CATALOG`` reply carries the same :meth:`snapshot`:
one copy of the catalog, made on the first query and made again only after
the catalog changes.  Sites are thus isolated from later edits without each
decoding a copy of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import CatalogError
from repro.nameserver.catalog import Catalog, ItemSpec
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.sim.kernel import Simulator

__all__ = ["SiteInfo", "NameServer"]


@dataclass
class SiteInfo:
    """Metadata the name server keeps per Rainbow site."""

    name: str
    address: str  # network endpoint address, e.g. "hostA/site1"
    host: str

    def to_dict(self) -> dict:
        return {"name": self.name, "address": self.address, "host": self.host}


class NameServer:
    """Site registry + catalog service, reachable over the network."""

    def __init__(self, sim: Simulator, network: Network, host: str, name: str = "nameserver"):
        self.sim = sim
        self.network = network
        self.name = name
        self.host = host
        self.endpoint = network.endpoint(host, name, handler=self._handle)
        self._catalog = Catalog()
        self._snapshot: Optional[Catalog] = None
        self._registry: dict[str, SiteInfo] = {}
        self.up = True
        self.queries_served = 0

    @property
    def address(self) -> str:
        """The name server's network address."""
        return self.endpoint.address

    # -- catalog --------------------------------------------------------------
    @property
    def catalog(self) -> Catalog:
        """The live schema.

        Change it only by assigning it or through :meth:`configure_quorums`,
        so that the snapshot sites receive follows the change.
        """
        return self._catalog

    @catalog.setter
    def catalog(self, catalog: Catalog) -> None:
        self._catalog = catalog
        self._snapshot = None

    def snapshot(self) -> Catalog:
        """The copy of the catalog every ``NS_CATALOG`` reply shares.

        Readers must treat it as read-only; it is never the live catalog.
        """
        if self._snapshot is None:
            self._snapshot = self._catalog.copy()
        return self._snapshot

    def configure_quorums(
        self, item_name: str, read_quorum: Optional[int], write_quorum: Optional[int]
    ) -> ItemSpec:
        """Set one item's quorums (``None`` = majority), all or nothing.

        Raises :class:`CatalogError`, leaving the catalog unchanged, when the
        item is unknown or the new quorums violate the quorum rules.
        """
        spec = self._catalog.item(item_name)
        replace(spec, read_quorum=read_quorum, write_quorum=write_quorum).validate()
        spec.read_quorum = read_quorum
        spec.write_quorum = write_quorum
        self._snapshot = None
        return spec

    # -- local (administrator) interface ------------------------------------
    def register_site(self, name: str, address: str, host: str) -> SiteInfo:
        """Register a site's id and endpoint specification."""
        if name in self._registry:
            raise CatalogError(f"site {name!r} already registered")
        info = SiteInfo(name=name, address=address, host=host)
        self._registry[name] = info
        return info

    def site_info(self, name: str) -> SiteInfo:
        """Metadata for one site."""
        try:
            return self._registry[name]
        except KeyError:
            raise CatalogError(f"unknown site {name!r}") from None

    def sites(self) -> list[SiteInfo]:
        """All registered sites, sorted by name."""
        return [self._registry[name] for name in sorted(self._registry)]

    def site_names(self) -> list[str]:
        """All registered site names, sorted."""
        return sorted(self._registry)

    def address_of(self, site_name: str) -> str:
        """Endpoint address of a registered site."""
        return self.site_info(site_name).address

    # -- fault surface ----------------------------------------------------------
    def crash(self) -> None:
        """Take the name-server service down (metadata is durable)."""
        self.up = False
        self.endpoint.set_down()

    def recover(self) -> None:
        """Bring the service back."""
        self.up = True
        self.endpoint.set_up()

    # -- network service -----------------------------------------------------------
    def _handle(self, msg: Message) -> None:
        self.queries_served += 1
        if msg.mtype == MessageType.NS_REGISTER:
            payload = msg.payload or {}
            self.register_site(payload["name"], payload["address"], payload["host"])
            self.endpoint.reply(msg, MessageType.NS_REPLY, payload={"ok": True})
        elif msg.mtype == MessageType.NS_LOOKUP:
            wanted = (msg.payload or {}).get("site")
            if wanted is None:
                payload = {"sites": [info.to_dict() for info in self.sites()]}
            else:
                info = self._registry.get(wanted)
                payload = {"sites": [info.to_dict()] if info else []}
            # Reply size reflects the directory entries returned, so
            # byte-weighted latency models price the lookup realistically.
            self.endpoint.reply(
                msg,
                MessageType.NS_REPLY,
                payload=payload,
                size=max(1, len(payload["sites"])),
            )
        elif msg.mtype == MessageType.NS_CATALOG:
            self.endpoint.reply(
                msg,
                MessageType.NS_REPLY,
                payload={"catalog": self.snapshot()},
                size=max(1, len(self._catalog)),
            )
        else:
            self.endpoint.reply(
                msg, MessageType.NS_REPLY, payload={"error": f"unknown request {msg.mtype}"}
            )

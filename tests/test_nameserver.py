"""Unit tests for the name server."""

import pytest

from repro.errors import CatalogError, RpcTimeout
from repro.nameserver.catalog import Catalog
from repro.nameserver.server import NameServer
from repro.net.message import MessageType
from tests.conftest import drive


@pytest.fixture
def ns(sim, network):
    server = NameServer(sim, network, "ns-host")
    server.catalog.add_item("x", placement=["s1", "s2"])
    return server


class TestRegistry:
    def test_register_and_lookup(self, ns):
        ns.register_site("s1", "h1/s1", "h1")
        assert ns.site_info("s1").address == "h1/s1"
        assert ns.address_of("s1") == "h1/s1"
        assert ns.site_names() == ["s1"]

    def test_duplicate_rejected(self, ns):
        ns.register_site("s1", "h1/s1", "h1")
        with pytest.raises(CatalogError):
            ns.register_site("s1", "h1/s1b", "h1")

    def test_unknown_site_rejected(self, ns):
        with pytest.raises(CatalogError):
            ns.site_info("ghost")

    def test_sites_sorted(self, ns):
        ns.register_site("s2", "h2/s2", "h2")
        ns.register_site("s1", "h1/s1", "h1")
        assert [info.name for info in ns.sites()] == ["s1", "s2"]


class TestCatalogSnapshot:
    def test_snapshot_is_a_cached_copy(self, ns):
        snapshot = ns.snapshot()
        assert snapshot is not ns.catalog
        assert snapshot.item("x") == ns.catalog.item("x")
        assert snapshot.item("x") is not ns.catalog.item("x")
        assert ns.snapshot() is snapshot

    def test_invalid_quorums_leave_catalog_and_snapshot_unchanged(self, ns):
        ns.catalog.add_item("y", placement=["s1", "s2", "s3"])
        before = ns.snapshot()
        with pytest.raises(CatalogError, match="must exceed total votes 3"):
            ns.configure_quorums("y", 1, 1)
        spec = ns.catalog.item("y")
        assert (spec.read_quorum, spec.write_quorum) == (None, None)
        assert ns.snapshot() is before

    def test_unknown_item_rejected(self, ns):
        with pytest.raises(CatalogError, match="unknown item"):
            ns.configure_quorums("ghost", 1, 1)

    def test_assigning_a_catalog_replaces_the_snapshot(self, ns):
        before = ns.snapshot()
        replacement = Catalog()
        replacement.add_item("z", placement=["s1"])
        ns.catalog = replacement
        assert ns.snapshot() is not before
        assert ns.snapshot().item_names() == ["z"]


class TestService:
    def _client(self, network):
        return network.endpoint("hc", "client")

    def test_ns_lookup_all(self, sim, network, ns):
        ns.register_site("s1", "h1/s1", "h1")
        client = self._client(network)

        def run():
            reply = yield client.request(ns.address, MessageType.NS_LOOKUP, {}, timeout=10)
            return reply.payload["sites"]

        sites = drive(sim, run())
        assert sites == [{"name": "s1", "address": "h1/s1", "host": "h1"}]

    def test_ns_lookup_single(self, sim, network, ns):
        ns.register_site("s1", "h1/s1", "h1")
        ns.register_site("s2", "h2/s2", "h2")
        client = self._client(network)

        def run():
            reply = yield client.request(
                ns.address, MessageType.NS_LOOKUP, {"site": "s2"}, timeout=10
            )
            return reply.payload["sites"]

        assert [s["name"] for s in drive(sim, run())] == ["s2"]

    def test_ns_catalog_roundtrip(self, sim, network, ns):
        client = self._client(network)

        def run():
            reply = yield client.request(ns.address, MessageType.NS_CATALOG, {}, timeout=10)
            return reply.payload["catalog"]

        catalog = drive(sim, run())
        assert "x" in catalog
        assert catalog.item("x") == ns.catalog.item("x")
        assert catalog is not ns.catalog

    def test_ns_catalog_replies_share_one_snapshot(self, sim, network, ns):
        ns.catalog.add_item("y", placement=["s1", "s2", "s3"])
        client = self._client(network)

        def run():
            replies = []
            for _ in range(2):
                reply = yield client.request(ns.address, MessageType.NS_CATALOG, {}, timeout=10)
                replies.append(reply)
            return replies

        first, second = drive(sim, run())
        assert first.payload["catalog"] is second.payload["catalog"]
        assert first.size == second.size == len(ns.catalog) == 2

    def test_ns_register_via_message(self, sim, network, ns):
        client = self._client(network)

        def run():
            reply = yield client.request(
                ns.address,
                MessageType.NS_REGISTER,
                {"name": "s9", "address": "h9/s9", "host": "h9"},
                timeout=10,
            )
            return reply.payload

        assert drive(sim, run())["ok"]
        assert ns.address_of("s9") == "h9/s9"

    def test_unknown_request_answered_with_error(self, sim, network, ns):
        client = self._client(network)

        def run():
            reply = yield client.request(ns.address, "NS_WEIRD", {}, timeout=10)
            return reply.payload

        assert "error" in drive(sim, run())

    def test_reply_without_pending_rpc_never_reaches_handler(self, sim, network, ns):
        client = self._client(network)
        client.send(ns.address, MessageType.NS_REPLY, {"ok": True}, reply_to=12345)
        sim.run()
        assert network.stats.delivered == 1
        assert ns.queries_served == 0
        assert network.stats.sent == 1  # the name server answered nothing

    def test_crashed_ns_does_not_answer(self, sim, network, ns):
        client = self._client(network)
        ns.crash()

        def run():
            with pytest.raises(RpcTimeout):
                yield client.request(ns.address, MessageType.NS_LOOKUP, {}, timeout=5)
            return "timed out"

        assert drive(sim, run()) == "timed out"

    def test_recovered_ns_answers_again(self, sim, network, ns):
        ns.register_site("s1", "h1/s1", "h1")
        client = self._client(network)
        ns.crash()
        ns.recover()

        def run():
            reply = yield client.request(ns.address, MessageType.NS_LOOKUP, {}, timeout=10)
            return reply.payload["sites"]

        assert len(drive(sim, run())) == 1  # metadata survived the crash
        assert ns.queries_served >= 1

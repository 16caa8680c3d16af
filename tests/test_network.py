"""Unit tests for the simulated network, messages, latency, RPC."""

import random

import pytest

from repro.errors import NetworkError, RpcTimeout
from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    LanWanLatency,
    UniformLatency,
)
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.sim.kernel import Simulator
from tests.conftest import drive, inbox


class TestMessage:
    def test_ids_unique_and_increasing(self):
        # Each network numbers the messages it sends, starting at 1.
        for _network in range(2):
            network = Network(Simulator())
            sender = network.endpoint("h", "x")
            a = sender.send("h/y", "T")
            b = sender.send("h/y", "T")
            assert (a.msg_id, b.msg_id) == (1, 2)

    def test_reply_swaps_endpoints_and_links(self):
        request = Message(src="a/1", dst="b/2", mtype=MessageType.READ, txn_id=9)
        reply = request.reply(MessageType.READ_REPLY, payload={"ok": True})
        assert reply.src == "b/2"
        assert reply.dst == "a/1"
        assert reply.reply_to == request.msg_id
        assert reply.txn_id == 9

    def test_categories(self):
        assert MessageType.category(MessageType.READ) == "data"
        assert MessageType.category(MessageType.VOTE_REQ) == "commit"
        assert MessageType.category(MessageType.NS_LOOKUP) == "nameserver"
        assert MessageType.category(MessageType.WEB_REQUEST) == "web"
        assert MessageType.category("WEIRD") == "other"


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(2.5)
        assert model.delay("a", "b", 1, random.Random(0)) == 2.5

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_within_bounds(self):
        model = UniformLatency(1.0, 3.0)
        rng = random.Random(0)
        draws = [model.delay("a", "b", 1, rng) for _ in range(100)]
        assert all(1.0 <= d <= 3.0 for d in draws)

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)

    def test_exponential_has_floor(self):
        model = ExponentialLatency(mean=1.0, floor=0.5)
        rng = random.Random(0)
        assert all(model.delay("a", "b", 1, rng) >= 0.5 for _ in range(100))

    def test_exponential_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ExponentialLatency(mean=0)
        with pytest.raises(ValueError):
            ExponentialLatency(mean=1, floor=-1)

    def test_lanwan_local_vs_remote(self):
        model = LanWanLatency(local=0.1, remote_low=1.0, remote_high=2.0)
        rng = random.Random(0)
        assert model.delay("h1", "h1", 1, rng) == 0.1
        assert model.delay("h1", "h2", 1, rng) >= 1.0

    def test_lanwan_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LanWanLatency(local=-1)


class TestEndpoints:
    def test_duplicate_address_rejected(self, sim):
        network = Network(sim)
        network.endpoint("h", "a")
        with pytest.raises(NetworkError):
            network.endpoint("h", "a")

    def test_lookup_unknown_raises(self, sim, network):
        with pytest.raises(NetworkError):
            network.lookup("nope/nothing")

    def test_addresses_sorted(self, sim, network):
        network.endpoint("h2", "b")
        network.endpoint("h1", "a")
        assert network.addresses() == ["h1/a", "h2/b"]

    def test_send_and_receive(self, sim, network):
        a = network.endpoint("h1", "a")
        seen = []
        b = network.endpoint(
            "h2", "b", handler=lambda msg: seen.append((msg.mtype, msg.payload, sim.now))
        )
        a.send(b.address, "PING", payload=123)
        sim.run()
        assert seen == [("PING", 123, 1.0)]  # ConstantLatency(1.0)

    def test_receive_queued_message_immediately(self, sim, network):
        """A delivered request reaches the handler at its delivery instant;
        nothing is queued behind a consumer."""
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        messages = inbox(b)
        a.send(b.address, "PING")
        sim.run(until=0.5)
        assert messages == []
        sim.run(until=1.0)
        assert [msg.mtype for msg in messages] == ["PING"]

    def test_endpoint_without_handler_drops_requests(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        a.send(b.address, "PING")
        sim.run()
        assert network.stats.delivered == 1
        assert network.stats.dropped == 0


class TestRpc:
    def test_request_reply_roundtrip(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint(
            "h2", "b", handler=lambda msg: b.reply(msg, "PONG", payload=msg.payload + 1)
        )

        def client():
            reply = yield a.request(b.address, "PING", payload=1, timeout=10)
            return reply.payload

        assert drive(sim, client()) == 2
        assert network.stats.round_trips == 1

    def test_request_times_out_when_no_answer(self, sim, network):
        a = network.endpoint("h1", "a")
        network.endpoint("h2", "b")  # never answers

        def client():
            with pytest.raises(RpcTimeout):
                yield a.request("h2/b", "PING", timeout=5)
            return sim.now

        assert drive(sim, client()) == 5.0
        assert network.stats.rpc_timeouts == 1

    def test_request_to_unknown_destination_times_out(self, sim, network):
        a = network.endpoint("h1", "a")

        def client():
            with pytest.raises(RpcTimeout):
                yield a.request("ghost/x", "PING", timeout=3)

        drive(sim, client())
        assert network.stats.dropped == 1

    def test_late_reply_after_timeout_not_matched(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint(
            "h2", "b", handler=lambda msg: sim.defer(10, lambda: b.reply(msg, "PONG"))
        )
        a_inbox = inbox(a)

        def client():
            with pytest.raises(RpcTimeout):
                yield a.request(b.address, "PING", timeout=3)

        drive(sim, client())
        sim.run()
        # The late reply is delivered, matches no pending RPC, and is
        # dropped before it reaches a's handler.
        assert network.stats.delivered == 2
        assert network.stats.round_trips == 0
        assert a_inbox == []

    def test_invalid_timeout_rejected(self, sim, network):
        a = network.endpoint("h1", "a")
        with pytest.raises(Exception):
            a.request("h1/a", "X", timeout=0)



class TestExpiryQueues:
    """RPC expiry: one FIFO per (endpoint, timeout), only its head on the heap."""

    @staticmethod
    def _echo(network, host="h2", name="b"):
        endpoint = network.endpoint(host, name)
        endpoint.handler = lambda msg: endpoint.reply(msg, "PONG")
        return endpoint

    def test_timeout_fires_where_a_defer_made_at_send_time_would(self, sim, network):
        a = network.endpoint("h1", "a")
        self._echo(network)
        network.endpoint("h3", "silent")
        seen = []
        # An answered RPC first, so the silent one's timer is armed by the
        # head timer re-arming, not by its own request.
        a.request("h2/b", "PING", timeout=5)

        def later():
            sim.defer(5, lambda: seen.append(("before", sim.now, rpc.triggered)))
            rpc = a.request("h3/silent", "PING", timeout=5)
            sim.defer(5, lambda: seen.append(("after", sim.now, rpc.triggered)))

        sim.defer(1, later)
        sim.run()
        assert seen == [("before", 6.0, False), ("after", 6.0, True)]
        assert network.stats.rpc_timeouts == 1

    def test_answered_rpcs_leave_one_kernel_entry_per_timeout(self, sim, network):
        a = network.endpoint("h1", "a")
        self._echo(network)
        events = [
            a.request("h2/b", "PING", timeout=timeout)
            for timeout in (25, 40)
            for _ in range(500)
        ]
        sim.run(until=3)  # every request answered at t=2
        assert all(event.ok for event in events)
        processed = sim.processed_events
        sim.run()
        # One head timer per (endpoint, timeout) fires, finds its request
        # answered, skips the 499 answered ones behind it, and stops.
        assert sim.processed_events - processed == 2
        assert network.stats.rpc_timeouts == 0

    def test_mixed_timeouts_fire_in_deadline_order(self, sim, network):
        a = network.endpoint("h1", "a")
        network.endpoint("h2", "b")  # never answers
        fired = []

        def issue(timeout):
            event = a.request("h2/b", "PING", timeout=timeout)
            event.add_callback(lambda ev: fired.append((sim.now, type(ev.value).__name__)))

        for timeout in (90, 40, 25):
            issue(timeout)
        sim.defer(10, lambda: [issue(t) for t in (25, 90)])
        sim.defer(20, lambda: [issue(t) for t in (40, 25)])
        sim.run()
        assert fired == [
            (deadline, "RpcTimeout") for deadline in (25.0, 35.0, 40.0, 45.0, 60.0, 90.0, 100.0)
        ]
        assert network.stats.rpc_timeouts == 7

    def test_set_down_fails_pending_and_stale_entries_are_skipped(self, sim, network):
        a = network.endpoint("h1", "a")
        network.endpoint("h2", "b")  # never answers
        first = [a.request("h2/b", "PING", timeout=10) for _ in range(2)]
        sim.defer(2, a.set_down)
        sim.defer(3, a.set_up)
        later = []
        sim.defer(4, lambda: later.append(a.request("h2/b", "PING", timeout=10)))
        sim.run(until=2)
        assert all(isinstance(event.value, NetworkError) for event in first)
        sim.run()
        # The head timer at t=10 finds both stale entries and re-arms for
        # the request made after recovery, which expires on time.
        (event,) = later
        assert isinstance(event.value, RpcTimeout)
        assert sim.now == 14.0
        assert network.stats.rpc_timeouts == 1


class TestFailureModes:
    def test_down_endpoint_loses_messages(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        messages = inbox(b)
        b.set_down()
        a.send(b.address, "PING")
        sim.run()
        assert network.stats.dropped == 1
        assert messages == []

    def test_down_endpoint_fails_pending_rpcs(self, sim, network):
        a = network.endpoint("h1", "a")
        network.endpoint("h2", "b")

        def client():
            with pytest.raises(NetworkError):
                yield a.request("h2/b", "PING", timeout=100)
            return sim.now

        process = sim.process(client())
        sim.defer(2, a.set_down)
        assert sim.run(until=process) == 2.0

    def test_source_down_drops_sends(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        a.set_down()
        a.send(b.address, "PING")
        sim.run()
        assert network.stats.dropped == 1

    def test_recovered_endpoint_receives_again(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        messages = inbox(b)
        b.set_down()
        b.set_up()
        a.send(b.address, "PING")
        sim.run()
        assert len(messages) == 1

    def test_queued_messages_lost_on_crash(self, sim, network):
        """Messages still in flight when the endpoint crashes are lost."""
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        messages = inbox(b)
        a.send(b.address, "PING")
        sim.run(until=0.5)
        b.set_down()
        sim.run()
        assert messages == []
        assert network.stats.dropped_by_type == {"PING": 1}


class TestPartitions:
    def _pair(self, sim, network):
        return network.endpoint("h1", "a"), network.endpoint("h2", "b")

    def test_partition_drops_cross_group(self, sim, network):
        a, b = self._pair(sim, network)
        network.partition([["h1"], ["h2"]])
        a.send(b.address, "PING")
        sim.run()
        assert network.stats.dropped == 1

    def test_partition_allows_same_group(self, sim, network):
        a, b = self._pair(sim, network)
        b_inbox = inbox(b)
        network.partition([["h1", "h2"]])
        a.send(b.address, "PING")
        sim.run()
        assert len(b_inbox) == 1

    def test_unlisted_hosts_form_implicit_group(self, sim, network):
        a, b = self._pair(sim, network)
        c = network.endpoint("h3", "c")
        c_inbox = inbox(c)
        network.partition([["h1"]])
        b.send(c.address, "PING")  # h2 and h3 both implicit
        sim.run()
        assert len(c_inbox) == 1

    def test_heal_partition(self, sim, network):
        a, b = self._pair(sim, network)
        b_inbox = inbox(b)
        network.partition([["h1"], ["h2"]])
        network.heal_partition()
        a.send(b.address, "PING")
        sim.run()
        assert len(b_inbox) == 1

    def test_host_in_two_groups_rejected(self, sim, network):
        with pytest.raises(NetworkError):
            network.partition([["h1"], ["h1"]])

    def test_cut_and_restore_link(self, sim, network):
        a, b = self._pair(sim, network)
        b_inbox = inbox(b)
        network.cut_link("h1", "h2")
        a.send(b.address, "PING")
        sim.run()
        assert network.stats.dropped == 1
        network.restore_link("h1", "h2")
        a.send(b.address, "PING")
        sim.run()
        assert len(b_inbox) == 1

    def test_cut_link_does_not_affect_local(self, sim, network):
        a = network.endpoint("h1", "a")
        a2 = network.endpoint("h1", "a2")
        a2_inbox = inbox(a2)
        network.cut_link("h1", "h1")
        a.send(a2.address, "PING")
        sim.run()
        assert len(a2_inbox) == 1


class TestLossAndStats:
    def test_random_loss(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(0.1), rng=random.Random(7), loss_rate=0.5)
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        for _ in range(200):
            a.send(b.address, "PING")
        sim.run()
        assert 40 < network.stats.dropped < 160

    def test_invalid_loss_rate(self, sim):
        with pytest.raises(NetworkError):
            Network(sim, loss_rate=1.0)

    def test_random_loss_counted_separately(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(0.1), rng=random.Random(7), loss_rate=0.5)
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        for _ in range(100):
            a.send(b.address, "PING")
        sim.run()
        assert network.stats.lost_random == network.stats.dropped
        assert network.stats.lost_by_type["PING"] == network.stats.lost_random

    def test_duplication_delivers_extra_copies(self):
        sim = Simulator()
        network = Network(
            sim, ConstantLatency(0.1), rng=random.Random(7), duplication_rate=0.5
        )
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        b_inbox = inbox(b)
        for _ in range(100):
            a.send(b.address, "PING")
        sim.run()
        assert network.stats.sent == 100
        assert 10 < network.stats.duplicated < 90
        assert len(b_inbox) == 100 + network.stats.duplicated
        assert network.stats.delivered == 100 + network.stats.duplicated

    def test_invalid_duplication_rate(self, sim):
        with pytest.raises(NetworkError):
            Network(sim, duplication_rate=1.0)

    def test_by_type_counter(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        a.send(b.address, "X")
        a.send(b.address, "X")
        a.send(b.address, "Y")
        assert network.stats.by_type == {"X": 2, "Y": 1}

    def test_bytes_accounting(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        a.send(b.address, "X", size=10)
        a.send(b.address, "X", size=5)
        assert network.stats.bytes_sent == 15

    def test_observer_sees_outcomes(self, sim, network):
        seen = []
        network.add_observer(lambda msg, outcome: seen.append((msg.mtype, outcome)))
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        b.set_down()
        a.send(b.address, "DEAD")
        sim.run()
        assert ("DEAD", "endpoint down") in seen

    def test_snapshot_is_plain_dict(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        a.send(b.address, "X")
        snap = network.stats.snapshot()
        assert snap["sent"] == 1
        assert isinstance(snap["by_type"], dict)
        assert snap["lost_random"] == 0
        assert snap["duplicated"] == 0


class TestFlakyLinks:
    def test_flaky_link_overrides_loss_for_one_pair(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(0.1), rng=random.Random(7))
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        c = network.endpoint("h3", "c")
        c_inbox = inbox(c)
        network.set_link_flakiness("h1", "h2", loss=0.99)
        for _ in range(100):
            a.send(b.address, "PING")
            a.send(c.address, "PING")
        sim.run()
        assert network.stats.lost_random > 80  # h1-h2 very lossy
        assert len(c_inbox) == 100  # h1-h3 untouched

    def test_flaky_link_duplicates(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(0.1), rng=random.Random(7))
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        b_inbox = inbox(b)
        network.set_link_flakiness("h1", "h2", duplicate=0.5)
        for _ in range(100):
            a.send(b.address, "PING")
        sim.run()
        assert 10 < network.stats.duplicated < 90
        assert len(b_inbox) == 100 + network.stats.duplicated

    def test_clear_link_flakiness(self, sim, network):
        a = network.endpoint("h1", "a")
        b = network.endpoint("h2", "b")
        b_inbox = inbox(b)
        network.set_link_flakiness("h1", "h2", loss=0.99)
        network.clear_link_flakiness("h1", "h2")
        a.send(b.address, "PING")
        sim.run()
        assert len(b_inbox) == 1

    def test_clear_flaky_links_heals_all(self, sim, network):
        network.endpoint("h1", "a")
        network.endpoint("h2", "b")
        network.set_link_flakiness("h1", "h2", loss=0.5)
        network.clear_flaky_links()
        assert network._flaky_links == {}

    def test_same_host_traffic_unaffected(self):
        sim = Simulator()
        network = Network(sim, ConstantLatency(0.1), rng=random.Random(7))
        a = network.endpoint("h1", "a")
        a2 = network.endpoint("h1", "a2")
        a2_inbox = inbox(a2)
        with pytest.raises(NetworkError):
            network.set_link_flakiness("h1", "h1", loss=0.5)
        network.set_link_flakiness("h1", "h2", loss=0.99)
        for _ in range(50):
            a.send(a2.address, "PING")
        sim.run()
        assert len(a2_inbox) == 50

    def test_invalid_rates_rejected(self, sim, network):
        with pytest.raises(NetworkError):
            network.set_link_flakiness("h1", "h2", loss=1.0)
        with pytest.raises(NetworkError):
            network.set_link_flakiness("h1", "h2", duplicate=-0.1)

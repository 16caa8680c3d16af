"""Unit tests for the Rainbow site: server, participant, crash/recovery."""

import pytest

from repro.errors import ConcurrencyAbort
from repro.net.message import MessageType
from repro.site.site import Site
from repro.sim.kernel import Interrupt
from tests.conftest import drive, inbox


@pytest.fixture
def site(sim, network):
    site = Site(sim, network, "s1", "h1", gc_interval=0, uncertainty_timeout=None)
    site.store.create_copy("x", initial_value=0)
    site.store.create_copy("y", initial_value=5)
    return site


class TestLocalOperations:
    def test_local_read(self, sim, site):
        assert drive(sim, site.local_read(1, 1.0, "x")) == (0, 0)
        assert site.stats.reads_served == 1

    def test_local_prewrite_then_prepare_commit(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        vote, reason = site.local_prepare(1, {"x": 1}, "coord/a", 1.0)
        assert vote
        assert site.in_doubt_count() == 1
        site.local_commit(1)
        assert site.store.read("x") == (9, 1)
        assert site.in_doubt_count() == 0
        assert site.wal.decision_for(1) == "COMMIT"

    def test_local_abort_releases(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, "coord/a", 1.0)
        site.local_abort(1)
        assert site.store.read("x") == (0, 0)
        assert site.wal.decision_for(1) == "ABORT"

    def test_prepare_doomed_txn_votes_no(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.cc.doom(1)
        vote, reason = site.local_prepare(1, {"x": 1}, None, 1.0)
        assert not vote
        assert "doomed" in reason
        assert site.stats.votes_no == 1

    def test_prepare_with_lost_workspace_votes_no(self, sim, site):
        vote, reason = site.local_prepare(1, {"x": 1}, None, 1.0)
        assert not vote
        assert "lost" in reason

    def test_commit_for_unknown_txn_is_noop_commit(self, sim, site):
        site.local_commit(99)
        assert site.wal.decision_for(99) == "COMMIT"

    def test_abort_is_idempotent(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        site.local_abort(1)
        site.local_abort(1)  # duplicate decision: no error
        assert site.store.read("x") == (0, 0)

    def test_duplicate_commit_not_reapplied(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        site.local_commit(1)
        site.local_commit(1)
        assert site.stats.commits_applied == 1


class TestDecisionOf:
    def test_logged_decision_wins(self, sim, site):
        site.wal.log_commit(1, at=0.0)
        assert site.decision_of(1) == "COMMIT"

    def test_prepared_is_uncertain(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        assert site.decision_of(1) == "UNCERTAIN"

    def test_precommitted_reported(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        site.local_precommit(1)
        assert site.decision_of(1) == "PRECOMMITTED"
        assert site.decision_of(1, presume_abort=True) == "PRECOMMITTED"

    def test_presumed_abort_for_unknown(self, sim, site):
        assert site.decision_of(42) == "UNKNOWN"
        assert site.decision_of(42, presume_abort=True) == "ABORT"

    def test_presumed_abort_overrides_own_prepared_state(self, sim, site):
        """A coordinator asked about an undecided txn answers ABORT even if
        it also holds a participant prepare for it."""
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        assert site.decision_of(1, presume_abort=True) == "ABORT"


class TestMessageHandlers:
    def _client(self, sim, network, site):
        return network.endpoint("hc", "client")

    def test_read_message(self, sim, network, site):
        client = self._client(sim, network, site)

        def run():
            reply = yield client.request(
                site.address, MessageType.READ,
                {"txn": 1, "ts": 1.0, "item": "y"}, timeout=20,
            )
            return reply.payload

        payload = drive(sim, run())
        assert payload == {"ok": True, "value": 5, "version": 0}

    def test_prewrite_and_full_2pc_over_messages(self, sim, network, site):
        client = self._client(sim, network, site)

        def run():
            reply = yield client.request(
                site.address, MessageType.PREWRITE,
                {"txn": 1, "ts": 1.0, "item": "x", "value": 77}, timeout=20,
            )
            assert reply.payload["ok"]
            vote = yield client.request(
                site.address, MessageType.VOTE_REQ,
                {"txn": 1, "ts": 1.0, "versions": {"x": 1},
                 "coordinator": client.address}, timeout=20,
            )
            assert vote.payload["vote"]
            ack = yield client.request(
                site.address, MessageType.COMMIT, {"txn": 1}, timeout=20,
            )
            return ack.payload

        payload = drive(sim, run())
        assert payload["ok"]
        assert site.store.read("x") == (77, 1)

    def test_read_rejection_reported(self, sim, network, site):
        client = self._client(sim, network, site)
        site.cc.doom(1)

        def run():
            reply = yield client.request(
                site.address, MessageType.READ,
                {"txn": 1, "ts": 1.0, "item": "x"}, timeout=20,
            )
            return reply.payload

        payload = drive(sim, run())
        assert not payload["ok"]
        assert "doomed" in payload["reason"]

    def test_decision_req_message(self, sim, network, site):
        client = self._client(sim, network, site)
        site.wal.log_commit(3, at=0.0)

        def run():
            reply = yield client.request(
                site.address, MessageType.DECISION_REQ,
                {"txn": 3, "presume_abort": True}, timeout=20,
            )
            return reply.payload["decision"]

        assert drive(sim, run()) == "COMMIT"

    def test_stray_reply_dropped(self, sim, network, site):
        client = self._client(sim, network, site)
        client_inbox = inbox(client)
        client.send(site.address, MessageType.READ_REPLY, {"ok": True}, reply_to=12345)
        sim.run(until=10)
        # No bounce-back message arrived at the client.
        assert client_inbox == []

    def test_txn_submit_without_factory_fails_cleanly(self, sim, network, site):
        client = self._client(sim, network, site)

        def run():
            reply = yield client.request(
                site.address, MessageType.TXN_SUBMIT, {"txn_spec": None}, timeout=20,
            )
            return reply.payload

        payload = drive(sim, run())
        assert not payload["ok"]


class TestDispatch:
    @pytest.mark.parametrize(
        "mtype, payload, reply_type",
        [
            (MessageType.COMMIT, {"txn": 1}, MessageType.ACK),
            (MessageType.ABORT, {"txn": 1}, MessageType.ACK),
            (
                MessageType.VOTE_REQ,
                {"txn": 1, "ts": 1.0, "versions": {}, "coordinator": "hc/client"},
                MessageType.VOTE,
            ),
            (
                MessageType.DECISION_REQ,
                {"txn": 1, "presume_abort": True},
                MessageType.DECISION,
            ),
        ],
    )
    def test_synchronous_request_runs_inline(
        self, sim, network, site, monkeypatch, mtype, payload, reply_type
    ):
        spawned = []
        spawn = sim.process
        monkeypatch.setattr(
            sim, "process", lambda gen, name="": spawned.append(name) or spawn(gen, name)
        )
        sent = []
        network.add_observer(lambda msg, _outcome: sent.append((msg.mtype, sim.now)))
        client = network.endpoint("hc", "client")
        client.send(site.address, mtype, payload)
        sim.run()
        assert spawned == []
        # Sent at t=0, delivered and answered at t=1 (ConstantLatency(1.0)).
        assert sent == [(mtype, 0.0), (reply_type, 1.0)]

    def test_crash_interrupts_read_waiting_on_a_lock(self, sim, network, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))  # txn 1 holds x
        sent = []
        network.add_observer(lambda msg, _outcome: sent.append(msg.mtype))
        client = network.endpoint("hc", "client")
        client.send(site.address, MessageType.READ, {"txn": 2, "ts": 2.0, "item": "x"})
        sim.run(until=sim.now + 3)
        # A waiting access is one of the site's processes (so a crash
        # reaches it), still named after its message type.
        (handler,) = [p for p in site._processes if p.name == f"site:{site.name}:READ"]
        assert handler.is_alive  # queued behind txn 1's lock
        site.crash()
        sim.run()
        assert isinstance(handler.value, Interrupt)
        assert sent == [MessageType.READ]  # no READ_REPLY was ever sent


class TestCrashRecovery:
    def test_crash_marks_down_and_clears_volatile(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.crash()
        assert not site.up
        assert site.cc.active_transactions() == set()
        assert site.in_doubt_count() == 0

    def test_crash_is_idempotent(self, sim, site):
        site.crash()
        site.crash()
        assert site.stats.crashes == 1

    def test_recovery_replays_committed_writes(self, sim, site):
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        site.local_commit(1)
        # Simulate storage surviving but later writes arriving after crash:
        site.crash()
        site.recover()
        assert site.up
        assert site.store.read("x") == (9, 1)
        assert site.stats.recoveries == 1

    def test_recovery_reinstates_in_doubt(self, sim, site):
        drive(sim, site.local_prewrite(1, 2.0, "x", 9))
        site.local_prepare(1, {"x": 1}, "ghost/coord", 2.0)
        site.crash()
        site.recover()
        assert site.in_doubt_count() == 1
        # The reinstated transaction holds its exclusion: another writer
        # cannot sneak in.
        assert site.cc.buffered_writes(1) == {"x": 9}

    def test_recovered_in_doubt_resolves_via_decision_req(self, sim, network, site):
        # A fake coordinator that answers COMMIT.
        coord = network.endpoint(
            "hc",
            "coord",
            handler=lambda msg: coord.reply(
                msg, MessageType.DECISION, {"decision": "COMMIT"}
            ),
        )
        drive(sim, site.local_prewrite(1, 2.0, "x", 9))
        site.local_prepare(1, {"x": 1}, coord.address, 2.0)
        site.crash()
        site.recover()
        sim.run(until=sim.now + 100)
        assert site.in_doubt_count() == 0
        assert site.store.read("x") == (9, 1)
        assert site.stats.orphans_resolved >= 1

    def test_recovered_in_doubt_presumes_abort_from_silent_coordinator(
        self, sim, network, site
    ):
        coord = network.endpoint(
            "hc",
            "coord",
            handler=lambda msg: coord.reply(
                msg,
                MessageType.DECISION,
                {"decision": site_b.decision_of(msg.payload["txn"], True)},
            ),
        )
        site_b = Site(sim, network, "s2", "h2", gc_interval=0)
        drive(sim, site.local_prewrite(1, 2.0, "x", 9))
        site.local_prepare(1, {"x": 1}, coord.address, 2.0)
        site.crash()
        site.recover()
        sim.run(until=sim.now + 100)
        assert site.in_doubt_count() == 0
        assert site.store.read("x") == (0, 0)  # aborted


class TestSweepers:
    def test_gc_aborts_abandoned_unprepared_txn(self, sim, network):
        site = Site(sim, network, "s9", "h9", gc_interval=10, gc_timeout=20,
                    uncertainty_timeout=None)
        site.store.create_copy("x")
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        sim.run(until=60)
        assert site.stats.gc_aborts == 1
        assert site.cc.active_transactions() == set()

    def test_gc_spares_prepared_txn(self, sim, network):
        site = Site(sim, network, "s9", "h9", gc_interval=10, gc_timeout=20,
                    uncertainty_timeout=None)
        site.store.create_copy("x")
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        sim.run(until=60)
        assert site.stats.gc_aborts == 0
        assert site.in_doubt_count() == 1

    def test_uncertainty_sweeper_starts_resolution(self, sim, network):
        site = Site(sim, network, "s9", "h9", gc_interval=0,
                    uncertainty_timeout=15, sweep_interval=5, decision_retry=5)
        site.store.create_copy("x")
        coord = network.endpoint(
            "hc",
            "coord",
            handler=lambda msg: coord.reply(
                msg, MessageType.DECISION, {"decision": "ABORT"}
            ),
        )
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, coord.address, 1.0)
        sim.run(until=100)
        assert site.stats.orphan_events == 1
        assert site.in_doubt_count() == 0
        assert site.store.read("x") == (0, 0)

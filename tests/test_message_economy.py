"""Tests for the message-economy optimizations (docs/PERF.md).

Covers the three config-flagged optimizations — per-host operation
batching, the piggybacked 2PC prepare, and latency-aware quorum routing —
plus the satellites that ride with them: ``expected_delay`` on every
latency model, decision idempotence under duplicated deliveries, catalog
spec memoization, payload-derived reply sizes, and the EXP-MSGECON sweep.
"""

import pytest

from repro.chaos import invariants
from repro.experiments import message_economy
from repro.experiments.common import build_instance
from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    LanWanLatency,
    LinkOverrideLatency,
    UniformLatency,
)
from repro.net.message import MessageType
from repro.txn.coordinator import TxnContext
from repro.txn.transaction import Operation, Transaction
from repro.workload.spec import WorkloadSpec
from tests.conftest import drive, quick_instance


def econ_instance(
    n_sites=2,
    n_items=4,
    degree=None,
    *,
    ccp="MVTO",
    acp="2PC",
    sites_per_host=1,
    latency=None,
    seed=11,
    **flags,
):
    """A small instance with the optimization flags applied."""
    return build_instance(
        n_sites,
        n_items,
        degree if degree is not None else n_sites,
        rcp="QC",
        ccp=ccp,
        acp=acp,
        seed=seed,
        settle_time=60.0,
        latency=latency,
        **flags,
        sites_per_host=sites_per_host,
    )


def wal_decisions(site, kind, *, participant_only=False):
    """txn_id -> number of ``kind`` records in the site's WAL.

    With ``participant_only`` the count covers only participant-apply
    records (those tagged with a coordinator address); the home site
    additionally forces one untagged coordinator decision record.
    """
    counts = {}
    for record in site.wal.records:
        if record.kind != kind:
            continue
        if participant_only and record.coordinator is None:
            continue
        counts[record.txn_id] = counts.get(record.txn_id, 0) + 1
    return counts


class TestExpectedDelay:
    """expected_delay: the deterministic expectation of each latency model."""

    def test_constant(self):
        assert ConstantLatency(2.5).expected_delay("a", "b") == 2.5

    def test_uniform_is_midpoint(self):
        assert UniformLatency(1.0, 3.0).expected_delay("a", "b") == 2.0

    def test_exponential_is_floor_plus_mean(self):
        assert ExponentialLatency(mean=2.0, floor=0.5).expected_delay("a", "b") == 2.5

    def test_lanwan_distinguishes_hosts(self):
        model = LanWanLatency(local=0.05, remote_low=0.8, remote_high=1.2)
        assert model.expected_delay("h1", "h1") == 0.05
        assert model.expected_delay("h1", "h2") == pytest.approx(1.0)

    def test_link_override_resolves_pair(self):
        model = LinkOverrideLatency(
            ConstantLatency(1.0),
            {("hA", "hB"): 10.0, ("hA", "hC"): UniformLatency(2.0, 4.0)},
        )
        assert model.expected_delay("hA", "hB") == 10.0
        assert model.expected_delay("hB", "hA") == 10.0
        assert model.expected_delay("hA", "hC") == 3.0
        assert model.expected_delay("hA", "hD") == 1.0


class TestLatencyAwareRouting:
    def _context(self, instance, home="site1"):
        txn = Transaction(ops=[Operation.read("x1")], home_site=home)
        return TxnContext(
            txn,
            instance.sites[home],
            instance.catalog,
            instance.directory,
            instance.coordinator_config,
        )

    def test_routing_prefers_lan_siblings(self):
        # site1/site2 share host1, site3/site4 share host2.
        instance = econ_instance(
            n_sites=4, sites_per_host=2, latency="lanwan",
            latency_aware_routing=True,
        )
        ctx = self._context(instance, home="site3")
        order = ctx.order_local_first(["site1", "site2", "site3", "site4"])
        assert order == ["site3", "site4", "site1", "site2"]

    def test_flag_off_keeps_alphabetical_order(self):
        instance = econ_instance(n_sites=4, sites_per_host=2, latency="lanwan")
        ctx = self._context(instance, home="site3")
        order = ctx.order_local_first(["site1", "site2", "site3", "site4"])
        assert order == ["site3", "site1", "site2", "site4"]

    def test_routing_tie_break_is_name(self):
        instance = econ_instance(
            n_sites=4, sites_per_host=4, latency="lanwan",
            latency_aware_routing=True,
        )
        ctx = self._context(instance, home="site2")
        order = ctx.order_local_first(["site4", "site3", "site1", "site2"])
        assert order == ["site2", "site1", "site3", "site4"]


def _econ_workload(n=40):
    return WorkloadSpec(
        n_transactions=n,
        arrival="poisson",
        arrival_rate=0.3,
        min_ops=3,
        max_ops=5,
        read_fraction=0.6,
        increment_fraction=0.5,
        restart_on_abort=False,
    )


class TestBatching:
    def test_batching_coalesces_and_preserves_safety(self):
        batched = econ_instance(
            n_sites=6, n_items=12, degree=3, sites_per_host=3,
            batch_site_ops=True,
        )
        plain = econ_instance(n_sites=6, n_items=12, degree=3, sites_per_host=3)
        result_b = batched.run_workload(_econ_workload())
        result_p = plain.run_workload(_econ_workload())

        by_type = batched.network.stats.by_type
        assert by_type.get(MessageType.BATCH_ACCESS, 0) > 0
        assert result_b.statistics.batched_ops > 0
        assert result_b.statistics.round_trips_saved > 0
        assert plain.network.stats.by_type.get(MessageType.BATCH_ACCESS, 0) == 0
        assert batched.network.stats.sent < plain.network.stats.sent

        for result, instance in ((result_b, batched), (result_p, plain)):
            assert result.serializable is True
            violations = invariants.check_all(instance, result)
            assert not any(violations.values()), violations

    def test_flag_off_by_default(self):
        instance = quick_instance(n_sites=3, n_items=6)
        instance.run_workload(_econ_workload(10))
        assert MessageType.BATCH_ACCESS not in instance.network.stats.by_type


class TestPiggybackedPrepare:
    def _one_write_final_txn(self, **flags):
        instance = econ_instance(n_sites=2, n_items=2, **flags)
        txn = Transaction(
            ops=[Operation.read("x1"), Operation.write("x2", 42)],
            home_site="site1",
        )
        instance.run_transactions([txn])
        return instance, txn

    def test_piggyback_saves_the_vote_round(self):
        instance, txn = self._one_write_final_txn(piggyback_prepare=True)
        assert txn.committed
        # The remote prewrite carried the prepare: no explicit VOTE_REQ.
        assert instance.network.stats.by_type.get(MessageType.VOTE_REQ, 0) == 0
        stats = instance.monitor.output_statistics()
        assert stats.round_trips_saved == 1
        for site in instance.sites.values():
            assert site.store.read("x2")[0] == 42
        # Exactly one participant-apply COMMIT at each site (the home also
        # forces one untagged coordinator decision record).
        for site in instance.sites.values():
            applied = wal_decisions(site, "COMMIT", participant_only=True)
            assert applied.get(txn.txn_id) == 1
        assert wal_decisions(instance.sites["site1"], "COMMIT") == {txn.txn_id: 2}
        assert wal_decisions(instance.sites["site2"], "COMMIT") == {txn.txn_id: 1}
        # The piggybacked prepare was logged exactly once at the remote.
        prepares = wal_decisions(instance.sites["site2"], "PREPARE")
        assert prepares.get(txn.txn_id) == 1

    def test_explicit_round_without_flag(self):
        instance, txn = self._one_write_final_txn()
        assert txn.committed
        assert instance.network.stats.by_type.get(MessageType.VOTE_REQ, 0) == 1
        assert instance.monitor.output_statistics().round_trips_saved == 0

    def test_3pc_falls_back_to_explicit_votes(self):
        instance, txn = self._one_write_final_txn(
            piggyback_prepare=True, acp="3PC"
        )
        assert txn.committed
        assert instance.network.stats.by_type.get(MessageType.VOTE_REQ, 0) == 1
        assert instance.monitor.output_statistics().round_trips_saved == 0

    def test_counter_version_ccp_skips_write_piggyback(self):
        # 2PL stamps versions after the prewrite replies, so a final-op
        # *write* misses the piggyback window and keeps the explicit round.
        instance, txn = self._one_write_final_txn(
            piggyback_prepare=True, ccp="2PL"
        )
        assert txn.committed
        assert instance.network.stats.by_type.get(MessageType.VOTE_REQ, 0) == 1
        for site in instance.sites.values():
            assert site.store.read("x2")[0] == 42

    def test_piggybacked_no_vote_aborts(self):
        instance = econ_instance(n_sites=2, n_items=2, piggyback_prepare=True)
        instance.start()
        txn = Transaction(ops=[Operation.read("x1")], home_site="site1")
        ctx = TxnContext(
            txn,
            instance.sites["site1"],
            instance.catalog,
            instance.directory,
            instance.coordinator_config,
        )
        ctx._register("site2")
        ctx._pending_votes["site2"] = (False, "validation failed")
        all_yes, detail = drive(instance.sim, ctx.collect_votes("2PC"))
        assert all_yes is False
        assert "site2: validation failed" in detail


class TestDecisionIdempotence:
    def _assert_no_double_apply(self, instance, result, expected):
        violations = invariants.check_all(
            instance, result, expected_submissions=expected
        )
        assert not any(violations.values()), violations
        for site in instance.sites.values():
            # A participant applied each decision at most once, no matter
            # how many duplicate deliveries arrived.
            for txn_id, count in wal_decisions(
                site, "COMMIT", participant_only=True
            ).items():
                assert count == 1, (
                    f"{site.name} applied COMMIT x{count} for txn {txn_id}"
                )
            # Per site: at most one coordinator decision record plus one
            # participant-apply record.
            for kind in ("COMMIT", "ABORT"):
                for txn_id, count in wal_decisions(site, kind).items():
                    assert count <= 2, (
                        f"{site.name} logged {kind} x{count} for txn {txn_id}"
                    )

    def test_flaky_link_duplicates_do_not_double_apply(self):
        instance = econ_instance(n_sites=2, n_items=6, ccp="2PL")
        instance.start()
        instance.network.set_link_flakiness("host1", "host2", duplicate=0.9)
        result = instance.run_workload(_econ_workload(30))
        assert instance.network.stats.duplicated > 0
        assert result.statistics.committed > 0
        self._assert_no_double_apply(instance, result, 30)

    def test_global_duplication_with_optimizations_on(self):
        instance = econ_instance(
            n_sites=4, n_items=8, degree=3, sites_per_host=2,
            batch_site_ops=True, piggyback_prepare=True,
            latency_aware_routing=True, latency="lanwan",
        )
        instance.start()
        instance.network.duplication_rate = 0.3
        result = instance.run_workload(_econ_workload(30))
        assert instance.network.stats.duplicated > 0
        assert result.statistics.committed > 0
        self._assert_no_double_apply(instance, result, 30)


class TestReplySizes:
    def _ask(self, instance, mtype):
        site = instance.sites["site1"]

        def request():
            msg = yield site.endpoint.request(
                instance.nameserver.address, mtype, {}, timeout=50.0
            )
            return msg

        return drive(instance.sim, request())

    def test_ns_lookup_reply_sized_by_site_count(self):
        instance = quick_instance(n_sites=3, n_items=4)
        instance.start()
        reply = self._ask(instance, MessageType.NS_LOOKUP)
        assert reply.size == 3

    def test_ns_catalog_reply_sized_by_catalog(self):
        instance = quick_instance(n_sites=2, n_items=5)
        instance.start()
        reply = self._ask(instance, MessageType.NS_CATALOG)
        assert reply.size == 5


class TestMessageEconomyExperiment:
    def test_sweep_shows_savings(self):
        table = message_economy.run(
            flag_sets=("none", "all"),
            rcps=("QC",),
            latencies=("lanwan",),
            n_txns=40,
        )
        assert len(table.rows) == 2
        rows = {row["flags"]: row for row in table.rows}
        assert rows["none"]["saved_per_txn"] == 0.0
        assert rows["all"]["saved_per_txn"] > 0.0
        # The acceptance bar: >=25% fewer transaction-processing messages.
        assert rows["all"]["msgs_per_txn"] < 0.75 * rows["none"]["msgs_per_txn"]
        assert rows["all"]["round_trips_per_txn"] < (
            rows["none"]["round_trips_per_txn"] - 1.0
        )

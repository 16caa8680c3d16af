"""Tests for the transaction coordinator and its context."""

import pytest

from repro.txn.coordinator import AccessResult, CoordinatorConfig, TxnContext
from repro.txn.transaction import Operation, Transaction, TxnStatus
from tests.conftest import quick_instance


def run_txn(instance, txn):
    process = instance.submit(txn)
    instance.sim.run(until=process)
    return txn


class TestLifecycle:
    def test_timestamps_assigned_and_unique(self):
        instance = quick_instance(n_items=8)
        t1 = Transaction(ops=[Operation.read("x1")], home_site="site1")
        t2 = Transaction(ops=[Operation.read("x1")], home_site="site2")
        p1, p2 = instance.submit(t1), instance.submit(t2)
        instance.sim.run(until=instance.sim.all_of([p1, p2]))
        assert t1.ts != t2.ts
        assert t1.started_at is not None
        assert t1.finished_at is not None
        assert t1.decided_at is not None

    def test_ops_processed_in_order(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(
            ops=[
                Operation.write("x1", 5),
                Operation.read("x1"),  # must see own write
                Operation.read("x3"),
            ],
            home_site="site1",
        )
        run_txn(instance, txn)
        assert txn.committed
        assert txn.reads["x1"] == 5
        assert txn.reads["x3"] == 0

    def test_version_footprint_recorded(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(
            ops=[Operation.read("x1"), Operation.write("x3", 1)], home_site="site1"
        )
        run_txn(instance, txn)
        assert txn.read_versions == {"x1": 0}
        assert txn.write_versions == {"x3": 1}

    def test_monitor_notified_of_both_phases(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.read("x1")], home_site="site1")
        run_txn(instance, txn)
        assert instance.monitor.submitted == 1
        assert instance.monitor.started == 1
        assert instance.monitor.committed == 1

    def test_abort_classification_ccp(self):
        instance = quick_instance(n_items=8)
        instance.start()
        txn = Transaction(ops=[Operation.write("x1", 1)], home_site="site1", txn_id=1)
        instance.sites["site1"].cc.doom(txn.txn_id)
        run_txn(instance, txn)
        assert txn.status == TxnStatus.ABORTED
        assert txn.abort_cause == "CCP"

    def test_aborted_txn_releases_remote_state(self):
        instance = quick_instance(n_items=8, settle_time=0)
        instance.start()
        txn = Transaction(
            ops=[Operation.write("x2", 1), Operation.write("x1", 1)],
            home_site="site1",
            txn_id=1,
        )
        # Doom at home so the second op fails after the first prewrote
        # remotely (x2 lives on site2..site4).
        instance.sites["site1"].cc.doom(txn.txn_id)
        run_txn(instance, txn)
        assert txn.aborted
        instance.sim.run(until=instance.sim.now + 30)
        for site in instance.sites.values():
            assert txn.txn_id not in site.cc.active_transactions()


class TestContextHelpers:
    def _context(self, instance, txn):
        instance.start()
        return TxnContext(
            txn,
            instance.sites[txn.home_site],
            instance.catalog,
            instance.directory,
            instance.coordinator_config,
            instance.monitor,
        )

    def test_order_local_first(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.read("x1")], home_site="site2")
        ctx = self._context(instance, txn)
        ordered = ctx.order_local_first(["site1", "site2", "site3"])
        assert ordered[0] == "site2"
        assert sorted(ordered) == ["site1", "site2", "site3"]

    def test_order_local_first_when_not_holder(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.read("x1")], home_site="site4")
        ctx = self._context(instance, txn)
        assert ctx.order_local_first(["site1", "site2"]) == ["site1", "site2"]

    def test_access_read_local_no_messages(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.read("x1")], home_site="site1")
        txn.ts = 1.0
        ctx = self._context(instance, txn)
        before = instance.network.stats.sent

        def run():
            result = yield from ctx.access_read("site1", "x1")
            return result

        process = instance.sim.process(run())
        result = instance.sim.run(until=process)
        assert result.ok
        assert result.value == 0
        assert instance.network.stats.sent == before

    def test_access_read_remote_reports_net_failure(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.read("x2")], home_site="site1")
        txn.ts = 1.0
        ctx = self._context(instance, txn)
        ctx.config.op_timeout = 5
        instance.sites["site2"].crash()

        def run():
            result = yield from ctx.access_read("site2", "x2")
            return result

        process = instance.sim.process(run())
        result = instance.sim.run(until=process)
        assert not result.ok
        assert result.kind == "net"

    def test_participants_registered_with_versions(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.write("x1", 1)], home_site="site1")
        run_txn(instance, txn)
        # Participants are internal to the context, but their effect is
        # visible: w=2 sites saw the write, all were released.
        holders = instance.catalog.sites_holding("x1")
        updated = [
            name for name in holders
            if instance.sites[name].store.read("x1")[0] == 1
        ]
        assert len(updated) == 2


class TestConfig:
    def test_defaults(self):
        config = CoordinatorConfig()
        assert config.rcp == "QC"
        assert config.acp == "2PC"
        assert config.failpoint is None

    def test_access_result_defaults(self):
        result = AccessResult(ok=True, site="s1", value=3, version=2)
        assert result.kind is None
        assert result.reason == ""

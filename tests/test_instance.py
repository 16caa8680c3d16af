"""Unit/integration tests for RainbowInstance bring-up and sessions."""

import pytest

from repro.core.config import RainbowConfig
from repro.core.instance import RainbowInstance
from repro.errors import ConfigurationError
from repro.net.message import MessageType
from repro.txn.transaction import Operation, Transaction
from repro.workload.spec import WorkloadSpec
from tests.conftest import quick_instance


class TestBringUp:
    def test_sites_and_nameserver_created(self):
        instance = quick_instance(n_sites=3, n_items=6)
        assert sorted(instance.sites) == ["site1", "site2", "site3"]
        assert instance.nameserver.site_names() == ["site1", "site2", "site3"]
        assert set(instance.directory.values()) == {
            site.address for site in instance.sites.values()
        }

    def test_copies_installed_per_catalog(self):
        instance = quick_instance(n_sites=3, n_items=6, replication_degree=2)
        for item in instance.catalog.item_names():
            holders = instance.catalog.sites_holding(item)
            for name, site in instance.sites.items():
                assert site.store.has_copy(item) == (name in holders)

    def test_copies_installed_in_sorted_item_order(self):
        instance = quick_instance(n_sites=4, n_items=12, replication_degree=2)
        for name, site in instance.sites.items():
            assert list(site.store.snapshot()) == instance.catalog.items_at(name)

    def test_invalid_config_rejected_at_construction(self):
        config = RainbowConfig()  # no sites
        with pytest.raises(ConfigurationError):
            RainbowInstance(config)

    def test_start_bootstraps_directory_via_ns_messages(self):
        instance = quick_instance(n_sites=2, n_items=4)
        instance.start()
        assert instance.network.stats.by_type.get("NS_LOOKUP", 0) == 2
        assert instance.network.stats.by_type.get("NS_CATALOG", 0) == 2
        for site in instance.sites.values():
            assert site.directory == instance.directory
            assert site.catalog_cache.item_names() == instance.catalog.item_names()

    def test_start_idempotent(self):
        instance = quick_instance(n_sites=2, n_items=4)
        instance.start()
        t = instance.sim.now
        instance.start()
        assert instance.sim.now == t

    def test_bootstrap_survives_crashed_nameserver(self):
        instance = quick_instance(n_sites=2, n_items=4)
        instance.nameserver.crash()
        instance.start()  # falls back to administrator copies
        for site in instance.sites.values():
            assert site.directory == instance.directory
            assert site.catalog_cache is instance.catalog

    def test_fault_plan_applied_on_start(self):
        instance = quick_instance(n_sites=2, n_items=4, settle_time=5)
        instance.config.faults.schedule.crashes.append(("site2", 10.0))
        instance.start()
        instance.sim.run(until=15)
        assert not instance.sites["site2"].up


class TestCatalogSnapshot:
    """Sites share the name server's one read-only snapshot of the schema."""

    def test_sites_share_one_copy_that_is_not_the_live_catalog(self):
        instance = quick_instance(n_sites=3, n_items=6)
        instance.start()
        caches = {id(site.catalog_cache) for site in instance.sites.values()}
        assert len(caches) == 1
        shared = instance.sites["site1"].catalog_cache
        assert shared is not instance.nameserver.catalog
        assert shared.items() == instance.nameserver.catalog.items()

    def test_reconfiguration_after_bring_up_leaves_sites_unchanged(self):
        instance = quick_instance(n_sites=3, n_items=4)
        instance.start()
        instance.nameserver.configure_quorums("x1", 1, 3)
        assert instance.catalog.item("x1").read_quorum == 1
        for site in instance.sites.values():
            spec = site.catalog_cache.item("x1")
            assert (spec.read_quorum, spec.write_quorum) == (None, None)

    def test_later_ns_catalog_query_returns_new_quorums(self):
        instance = quick_instance(n_sites=3, n_items=4)
        instance.start()
        instance.nameserver.configure_quorums("x1", 1, 3)
        site = instance.sites["site2"]

        def query():
            return (
                yield site.endpoint.request(
                    instance.nameserver.address, MessageType.NS_CATALOG, {}, timeout=30.0
                )
            )

        process = instance.sim.process(query())
        instance.sim.run(until=process)
        reply = process.value
        spec = reply.payload["catalog"].item("x1")
        assert (spec.read_quorum, spec.write_quorum) == (1, 3)
        assert reply.payload["catalog"] is not instance.nameserver.catalog
        assert reply.size == len(instance.catalog) == 4


class TestDirectSubmission:
    def test_submit_runs_transaction(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.write("x1", 3)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        assert txn.committed
        assert instance.monitor.submitted == 1

    def test_submit_unknown_home_rejected(self):
        instance = quick_instance(n_items=8)
        txn = Transaction(ops=[Operation.read("x1")], home_site="ghost")
        with pytest.raises(ConfigurationError):
            instance.submit(txn)

    def test_run_transactions_batch(self):
        instance = quick_instance(n_items=16, settle_time=20)
        txns = [
            Transaction(ops=[Operation.write(f"x{i+1}", i)], home_site="site1")
            for i in range(5)
        ]
        result = instance.run_transactions(txns)
        assert result.statistics.finished == 5
        assert all(txn.committed for txn in txns)


class TestSessions:
    def test_run_workload_produces_result(self):
        instance = quick_instance(n_items=16, settle_time=20)
        result = instance.run_workload(WorkloadSpec(n_transactions=8, arrival_rate=0.5))
        assert result.statistics.finished == 8
        assert result.serializable is True
        assert result.duration > 0
        assert result.committed + result.aborted == 8

    def test_two_sessions_accumulate(self):
        instance = quick_instance(n_items=16, settle_time=20)
        instance.run_workload(WorkloadSpec(n_transactions=5, arrival_rate=0.5))
        result = instance.run_workload(WorkloadSpec(n_transactions=5, arrival_rate=0.5))
        assert result.statistics.finished == 10

    def test_settle_time_respected(self):
        instance = quick_instance(n_items=8, settle_time=50)
        t_before = instance.sim.now
        instance.run_workload(WorkloadSpec(n_transactions=1, arrival_rate=1.0))
        assert instance.sim.now >= t_before + 50

    def test_session_result_contains_fault_log(self):
        instance = quick_instance(n_items=8, settle_time=10)
        instance.config.faults.schedule.crashes.append(("site2", 5.0))
        instance.config.faults.schedule.recoveries.append(("site2", 8.0))
        result = instance.run_workload(WorkloadSpec(n_transactions=2, arrival_rate=0.5))
        kinds = [event.kind for event in result.fault_log]
        assert kinds == ["crash", "recover"]

    def test_seed_reproducibility(self):
        def run(seed):
            instance = quick_instance(n_items=16, seed=seed, settle_time=20)
            result = instance.run_workload(
                WorkloadSpec(n_transactions=10, arrival_rate=0.5)
            )
            stats = result.statistics
            return (
                stats.committed,
                stats.messages_total,
                stats.mean_response_time,
                [o.status for o in result.outcomes],
            )

        assert run(5) == run(5)
        assert run(5) != run(6) or run(5)[1] != run(6)[1]

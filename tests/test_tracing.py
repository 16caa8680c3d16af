"""Tests for execution tracing: local and global histories."""

import pytest

from repro.errors import ConcurrencyAbort
from repro.monitor.tracing import ExecutionTracer, TraceEvent, format_history
from repro.site.site import Site
from repro.txn.transaction import Operation, Transaction
from tests.conftest import drive, quick_instance


class TestNotation:
    def test_read_write_notation(self):
        assert TraceEvent(0, "s", "read", 3, item="x").notation() == "r3[x]"
        assert TraceEvent(0, "s", "prewrite", 3, item="x", value=7).notation() == "w3[x=7]"
        assert TraceEvent(0, "s", "prepare", 3).notation() == "p3"
        assert TraceEvent(0, "s", "precommit", 3).notation() == "pc3"
        assert TraceEvent(0, "s", "commit", 3).notation() == "c3"
        assert TraceEvent(0, "s", "abort", 3).notation() == "a3"

    def test_format_history_orders_by_time(self):
        events = [
            TraceEvent(2.0, "s", "commit", 1),
            TraceEvent(1.0, "s", "read", 1, item="x"),
        ]
        assert format_history(events) == "r1[x]  c1"

    def test_format_history_truncates(self):
        events = [TraceEvent(float(i), "s", "commit", i) for i in range(5)]
        assert format_history(events, max_events=2) == "c0  c1"


class TestTracerWithInstance:
    def _traced_instance(self):
        instance = quick_instance(n_items=8, settle_time=20)
        instance.start()
        tracer = ExecutionTracer(instance.sim)
        tracer.attach_all(instance)
        return instance, tracer

    def test_committed_txn_leaves_full_trace(self):
        instance, tracer = self._traced_instance()
        txn = Transaction(
            ops=[Operation.read("x1"), Operation.write("x3", 5)], home_site="site1"
        )
        process = instance.submit(txn)
        instance.sim.run(until=process)
        kinds = [event.kind for event in tracer.txn_events(txn.txn_id)]
        assert "read" in kinds
        assert "prewrite" in kinds
        assert "prepare" in kinds
        assert "commit" in kinds
        assert "abort" not in kinds

    def test_local_history_contains_only_site_events(self):
        instance, tracer = self._traced_instance()
        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        for site in instance.sites:
            for event in tracer.local_events(site):
                assert event.site == site

    def test_global_history_merges_sites(self):
        instance, tracer = self._traced_instance()
        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        sites_seen = {event.site for event in tracer.global_events()}
        assert len(sites_seen) >= 2  # home + at least one remote participant

    def test_history_string_notation(self):
        instance, tracer = self._traced_instance()
        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        history = tracer.global_history()
        assert f"w{txn.txn_id}[x1=5]" in history
        assert f"c{txn.txn_id}" in history

    def test_aborted_txn_traces_abort(self):
        instance, tracer = self._traced_instance()
        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1", txn_id=1)
        instance.sites["site1"].cc.doom(txn.txn_id)
        process = instance.submit(txn)
        instance.sim.run(until=process)
        instance.sim.run(until=instance.sim.now + 30)
        kinds = [event.kind for event in tracer.txn_events(txn.txn_id)]
        assert "commit" not in kinds

    def test_attach_idempotent(self):
        instance, tracer = self._traced_instance()
        tracer.attach(instance.sites["site1"])  # second attach: no double record
        assert instance.sites["site1"].observers == [tracer.record]
        txn = Transaction(ops=[Operation.read("x1")], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        # One read event at the home site (QC also reads a second site,
        # which is a different event, not a double-trace).
        reads_at_home = [
            e for e in tracer.txn_events(txn.txn_id)
            if e.kind == "read" and e.site == "site1"
        ]
        assert len(reads_at_home) == 1

    def test_operation_counts(self):
        instance, tracer = self._traced_instance()
        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        counts = tracer.operation_counts()
        assert counts["prewrite"] >= 1
        assert counts["commit"] >= 1


class TestRecordingRules:
    """What a site reports to its observers, operation by operation."""

    @pytest.fixture
    def traced_site(self, sim, network):
        site = Site(sim, network, "s1", "h1", gc_interval=0, uncertainty_timeout=None)
        site.store.create_copy("x", initial_value=0)
        tracer = ExecutionTracer(sim)
        tracer.attach(site)
        return site, tracer

    @staticmethod
    def kinds(tracer):
        return [event.kind for event in tracer.events]

    def test_each_operation_is_recorded_once_it_took_effect(self, sim, traced_site):
        site, tracer = traced_site
        assert drive(sim, site.local_read(1, 1.0, "x")) == (0, 0)
        version = drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": version}, None, 1.0)
        site.local_precommit(1)
        site.local_commit(1)
        assert self.kinds(tracer) == ["read", "prewrite", "prepare", "precommit", "commit"]
        read, prewrite = tracer.events[:2]
        assert (read.site, read.txn_id, read.item, read.value, read.version) == (
            "s1", 1, "x", 0, 0
        )
        assert (prewrite.item, prewrite.value, prewrite.version) == ("x", 9, version)

    def test_duplicate_commit_is_recorded_once(self, sim, traced_site):
        site, tracer = traced_site
        drive(sim, site.local_prewrite(1, 1.0, "x", 9))
        site.local_prepare(1, {"x": 1}, None, 1.0)
        site.local_commit(1)
        site.local_commit(1)  # a retried decision: applies nothing
        assert self.kinds(tracer).count("commit") == 1
        assert site.stats.commits_applied == 1

    def test_precommit_of_unknown_txn_records_nothing(self, traced_site):
        site, tracer = traced_site
        site.local_precommit(42)
        assert tracer.events == []
        assert site.wal.records == []

    def test_no_vote_records_nothing(self, traced_site):
        site, tracer = traced_site
        vote, _reason = site.local_prepare(1, {"x": 1}, None, 1.0)  # nothing buffered
        assert vote is False
        assert tracer.events == []

    def test_read_that_aborts_records_nothing(self, sim, network):
        site = Site(sim, network, "s1", "h1", ccp="TSO", gc_interval=0,
                    uncertainty_timeout=None)
        site.store.create_copy("x", initial_value=0)
        tracer = ExecutionTracer(sim)
        tracer.attach(site)
        site.cc.doom(1)
        with pytest.raises(ConcurrencyAbort):
            drive(sim, site.local_read(1, 1.0, "x"))
        assert tracer.events == []

    def test_observers_survive_crash_and_recovery(self, sim, traced_site):
        site, tracer = traced_site
        site.crash()
        site.recover()
        drive(sim, site.local_read(1, 1.0, "x"))
        site.local_abort(1)
        assert self.kinds(tracer) == ["read", "abort"]

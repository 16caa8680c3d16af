"""Causal span tracing: determinism, phase accounting, exporters, wiring."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.experiments.common import build_instance
from repro.net.message import Message, MessageType
from repro.workload.spec import WorkloadSpec


def traced_session(seed: int = 7, n_transactions: int = 15):
    """One small traced session; returns (instance, result)."""
    instance = build_instance(3, 24, 2, seed=seed, tracing=True)
    result = instance.run_workload(
        WorkloadSpec(
            n_transactions=n_transactions,
            arrival="poisson",
            arrival_rate=0.5,
            min_ops=2,
            max_ops=5,
            read_fraction=0.6,
        )
    )
    return instance, result


@pytest.fixture(scope="module")
def session():
    return traced_session()


class TestSpanModel:
    def test_span_ids_follow_txn_site_seq_scheme(self, session):
        instance, _result = session
        tracer = instance.span_tracer
        assert tracer.spans, "traced session produced no spans"
        for span in tracer.spans:
            txn_part, site, seq = span.span_id.split(":")
            assert txn_part == f"t{span.txn_id}"
            assert site == span.site
            assert int(seq) >= 1

    def test_every_traced_txn_has_one_root(self, session):
        instance, _result = session
        tracer = instance.span_tracer
        for txn_id in tracer.txn_ids():
            root = tracer.root(txn_id)
            assert root is not None and root.name == "txn"
            assert root.parent_id is None

    def test_children_nest_inside_parents(self, session):
        instance, _result = session
        tracer = instance.span_tracer
        for span in tracer.spans:
            if span.parent_id is None or span.end is None:
                continue
            parent = tracer.get(span.parent_id)
            if parent is None or parent.end is None:
                continue
            assert span.start >= parent.start - 1e-9

    def test_message_reply_propagates_span(self):
        msg = Message(
            mtype=MessageType.READ, src="a/s1", dst="b/s2",
            payload={}, span="t1:site1:3",
        )
        assert msg.reply(MessageType.READ_REPLY, {}).span == "t1:site1:3"


class TestSpanNesting:
    """Local CCP spans nest under the span of the request that caused them."""

    def test_batched_and_piggybacked_spans_have_their_parents(self):
        # Four sites per host: one BATCH_ACCESS serves several co-located
        # copies, and piggybacked prepares ride on the final access.
        instance = build_instance(
            8, 40, 3, seed=7, sites_per_host=4, latency="lanwan",
            batch_site_ops=True, piggyback_prepare=True,
            latency_aware_routing=True, tracing=True,
        )
        instance.run_workload(
            WorkloadSpec(
                n_transactions=60, arrival="poisson", arrival_rate=0.3,
                min_ops=3, max_ops=5, read_fraction=0.6,
            )
        )
        tracer = instance.span_tracer
        allowed = {
            "ccp.read": {"rcp.wave"},
            "ccp.prewrite": {"rcp.wave"},
            "ccp.prepare": {"acp.vote", "rcp.wave"},
        }
        seen = {name: set() for name in allowed}
        for span in tracer.spans:
            if span.name not in allowed:
                continue
            parent = tracer.get(span.parent_id) if span.parent_id else None
            assert parent is not None, f"{span.span_id} has no parent span"
            assert parent.name in allowed[span.name], (span.span_id, parent.name)
            assert parent.txn_id == span.txn_id
            seen[span.name].add(parent.name)
        # Both prepare paths ran: explicit vote rounds and piggybacked votes.
        assert seen == allowed


class TestPhaseAccounting:
    def test_breakdown_sums_to_response_time(self, session):
        instance, _result = session
        tracer = instance.span_tracer
        checked = 0
        for record in instance.monitor.records:
            if record.response_time is None or tracer.root(record.txn_id) is None:
                continue
            breakdown = obs.txn_phase_breakdown(tracer, record.txn_id)
            parts = sum(
                breakdown[key] for key in (*obs.PHASES, "other")
            )
            assert parts == pytest.approx(breakdown["total"], abs=1e-9)
            assert breakdown["total"] == pytest.approx(record.response_time)
            checked += 1
        assert checked > 0

    def test_aggregate_stats_cover_known_phases(self, session):
        instance, _result = session
        stats = instance.monitor.output_statistics()
        assert stats.phase_breakdown, "tracing on but no phase breakdown"
        for phase, entry in stats.phase_breakdown.items():
            assert phase in obs.PHASES
            assert entry["max_per_txn"] >= entry["mean_per_txn"] >= 0.0

    def test_critical_path_walks_root_to_leaf(self, session):
        instance, _result = session
        tracer = instance.span_tracer
        txn_id = tracer.txn_ids()[0]
        path = obs.critical_path(tracer, txn_id)
        assert path[0][0].name == "txn"
        for (parent, _), (child, _) in zip(path, path[1:]):
            assert child.parent_id == parent.span_id
        assert all(self_time >= 0.0 for _span, self_time in path)


class TestDeterminismAndPerturbation:
    def test_same_seed_exports_identical_bytes(self):
        first, _ = traced_session(seed=11, n_transactions=10)
        second, _ = traced_session(seed=11, n_transactions=10)
        assert obs.spans_to_chrome_json(first.span_tracer.spans) == \
            obs.spans_to_chrome_json(second.span_tracer.spans)
        assert obs.spans_to_csv(first.span_tracer.spans) == \
            obs.spans_to_csv(second.span_tracer.spans)

    def test_tracing_does_not_perturb_the_run(self):
        traced, traced_result = traced_session(seed=13, n_transactions=10)
        plain = build_instance(3, 24, 2, seed=13)
        plain_result = plain.run_workload(
            WorkloadSpec(
                n_transactions=10,
                arrival="poisson",
                arrival_rate=0.5,
                min_ops=2,
                max_ops=5,
                read_fraction=0.6,
            )
        )
        assert plain.span_tracer is None
        for field in ("committed", "aborted", "messages_total", "round_trips",
                      "mean_response_time", "orphaned_txns"):
            assert getattr(plain_result.statistics, field) == \
                getattr(traced_result.statistics, field)
        assert plain_result.statistics.phase_breakdown == {}


class TestExporters:
    def test_chrome_json_shape(self, session):
        instance, _result = session
        payload = json.loads(obs.spans_to_chrome_json(instance.span_tracer.spans))
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert events[0]["ph"] == "M" and events[0]["args"]["name"] == "rainbow"
        spans = [event for event in events if event["ph"] == "X"]
        assert len(spans) == len(instance.span_tracer.spans)
        for event in spans:
            assert event["dur"] >= 0.0
            assert event["cat"] in (*obs.PHASES, "structure")

    def test_csv_has_one_row_per_span(self, session):
        instance, _result = session
        text = obs.spans_to_csv(instance.span_tracer.spans)
        lines = text.strip().splitlines()
        assert lines[0].startswith("txn_id,span_id,parent_id,name,phase")
        assert len(lines) == len(instance.span_tracer.spans) + 1

    def test_multi_session_export_gets_one_pid_each(self):
        first, _ = traced_session(seed=3, n_transactions=5)
        second, _ = traced_session(seed=4, n_transactions=5)
        payload = json.loads(
            obs.tracers_to_chrome_json(
                [("a", first.span_tracer.spans), ("b", second.span_tracer.spans)]
            )
        )
        pids = {event["pid"] for event in payload["traceEvents"]}
        assert pids == {1, 2}


class TestChaosWiring:
    def test_failing_case_ships_history_and_trace(self):
        from repro.chaos.engine import run_chaos_case

        report = run_chaos_case(2, ccp="NOCC", trace=True)
        assert not report.ok, "NOCC seed 2 was expected to violate invariants"
        assert report.history, "failing case must carry its textbook history"
        assert " " in report.history
        payload = json.loads(report.trace_json)
        assert payload["traceEvents"]
        again = run_chaos_case(2, ccp="NOCC", trace=True)
        assert again.history == report.history
        assert again.trace_json == report.trace_json

    def test_green_case_stays_lean(self):
        from repro.chaos.engine import run_chaos_case

        report = run_chaos_case(3, intensity=0.0, n_transactions=10)
        assert report.ok
        assert report.history == "" and report.trace_json == ""

    def test_suite_report_renders_wrapped_history(self):
        from repro.chaos.engine import ChaosCaseReport
        from repro.chaos.suite import ChaosSuiteResult, render_suite_report

        case = ChaosCaseReport(
            seed=9,
            chunks=(),
            violations={"serializability": ["x1@1 written by both T1 and T2"]},
            history="  ".join(f"r{i}[x1]" for i in range(40)),
        )
        text = render_suite_report(ChaosSuiteResult(cases=[case]))
        assert "execution history (textbook notation):" in text
        history_lines = [
            line for line in text.splitlines() if line.startswith("    r")
        ]
        assert len(history_lines) > 1
        assert all(len(line) <= 96 for line in history_lines)


class TestGlobalRegistry:
    def test_global_flag_traces_new_instances(self):
        obs.enable_global_tracing()
        try:
            instance = build_instance(3, 12, 2, seed=5)
            assert instance.span_tracer is not None
            labels = [label for label, _tracer in obs.collected_tracers()]
            assert labels == ["session1"]
        finally:
            obs.disable_global_tracing()
        assert obs.collected_tracers() == []

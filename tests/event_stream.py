"""Print the full observed event stream of one seeded chaos case.

Two observers watch a site: the :class:`ExecutionTracer` (one event per
local read, pre-write, prepare, pre-commit, commit and abort) and the span
tracer (the causal span tree).  ``repro chaos`` prints neither in full for a
green case, so this script dumps both, one line per event and per span, for
the golden test in ``tests/test_golden.py``.  Regenerate a fixture only for
an intended behaviour change::

    PYTHONPATH=src python tests/event_stream.py qc-2pl-crashes \\
        > tests/fixtures/golden/events_qc_2pl_crashes.txt
"""

from __future__ import annotations

import sys

import repro.chaos.engine as engine

#: Case name -> ``run_chaos_case`` keyword arguments.  Seed 4 crashes two
#: sites under the default topology, so both cases run recovery paths.
CASES = {
    "qc-2pl-crashes": dict(seed=4, rcp="QC", ccp="2PL", acp="2PC"),
    "qc-mvto-flags": dict(
        seed=4,
        rcp="QC",
        ccp="MVTO",
        acp="2PC",
        sites_per_host=2,
        batch_site_ops=True,
        piggyback_prepare=True,
        latency_aware_routing=True,
    ),
}


def event_stream(case: str) -> str:
    """Run ``case`` with span tracing on; return its events and spans as text."""
    instances = []

    class CapturingTracer(engine.ExecutionTracer):
        def attach_all(self, instance) -> None:
            instances.append((self, instance))
            super().attach_all(instance)

    original = engine.ExecutionTracer
    engine.ExecutionTracer = CapturingTracer
    try:
        report = engine.run_chaos_case(trace=True, **CASES[case])
    finally:
        engine.ExecutionTracer = original
    (tracer, instance), = instances
    lines = [
        f"case {case}: committed={report.committed} aborted={report.aborted}"
        f" lost={report.lost} violations={report.violated_invariants()}",
        f"events {len(tracer.events)}",
    ]
    lines.extend(
        f"{event.at!r} {event.site} {event.kind} {event.txn_id} {event.item}"
        f" {event.value!r} {event.version!r}"
        for event in tracer.events
    )
    spans = instance.span_tracer.spans
    lines.append(f"spans {len(spans)}")
    lines.extend(
        f"{span.span_id} {span.parent_id} {span.name} {span.site}"
        f" {span.start!r} {span.end!r} {span.attrs!r}"
        for span in spans
    )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(event_stream(sys.argv[1]))

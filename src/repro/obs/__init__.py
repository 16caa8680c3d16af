"""Rainbow observability: causal spans, latency breakdown, trace export.

``repro.obs`` is the span-based tracing substrate described in ISSUE 5:
when enabled on a :class:`~repro.core.instance.RainbowInstance` (via
``instance.enable_tracing()`` or ``build_instance(..., tracing=True)``),
the coordinator, replica control, concurrency control, atomic commit,
and network layers record a causal span DAG per transaction.  Tracing is
strictly observational — it never changes protocol behavior — and is
zero-cost when disabled (every hook is a single ``is None`` check).

The module also hosts a tiny process-global registry used by
``repro experiment --trace``: sweeps build their instances deep inside
experiment modules, so the CLI flips the global flag and every instance
constructed afterwards enables tracing and registers its tracer here.
"""

from __future__ import annotations

from repro.obs.analyze import (
    PHASES,
    aggregate_phase_stats,
    critical_path,
    phase_of,
    render_span_tree,
    txn_phase_breakdown,
)
from repro.obs.export import (
    spans_to_chrome_json,
    spans_to_csv,
    tracers_to_chrome_json,
)
from repro.obs.spans import Span, SpanTracer

__all__ = [
    "Span",
    "SpanTracer",
    "PHASES",
    "phase_of",
    "aggregate_phase_stats",
    "txn_phase_breakdown",
    "critical_path",
    "render_span_tree",
    "spans_to_chrome_json",
    "spans_to_csv",
    "tracers_to_chrome_json",
    "enable_global_tracing",
    "disable_global_tracing",
    "global_tracing_enabled",
    "register_tracer",
    "collected_tracers",
]

_global_tracing = False
_collected: list[tuple[str, SpanTracer]] = []


def enable_global_tracing() -> None:
    """Trace every instance built from now on (see ``experiment --trace``)."""
    global _global_tracing
    _global_tracing = True
    _collected.clear()


def disable_global_tracing() -> None:
    """Stop auto-tracing new instances and drop collected tracers."""
    global _global_tracing
    _global_tracing = False
    _collected.clear()


def global_tracing_enabled() -> bool:
    return _global_tracing


def register_tracer(tracer: SpanTracer) -> None:
    """Record a session's tracer under a deterministic serial label."""
    _collected.append((f"session{len(_collected) + 1}", tracer))


def collected_tracers() -> list[tuple[str, SpanTracer]]:
    return list(_collected)

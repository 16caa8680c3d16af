"""Progress monitor: statistics, time series, tracing, result export."""

from repro.monitor.export import (
    network_stats_to_json,
    statistics_to_json,
    table_to_csv,
    table_to_json,
    timeseries_to_csv,
)
from repro.monitor.report import session_report
from repro.monitor.stats import OutputStatistics, ProgressMonitor, TxnRecord
from repro.monitor.tracing import ExecutionTracer, TraceEvent, format_history

__all__ = [
    "ExecutionTracer",
    "OutputStatistics",
    "ProgressMonitor",
    "TraceEvent",
    "TxnRecord",
    "format_history",
    "network_stats_to_json",
    "session_report",
    "statistics_to_json",
    "table_to_csv",
    "table_to_json",
    "timeseries_to_csv",
]

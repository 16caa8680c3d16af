"""One benchmark session in a fresh interpreter.

``python3 perfbench/session.py --workload NAME --seed N [--trace]`` brings
one Rainbow instance up, runs the workload's session on it and prints one
JSON object on its last line:

* ``host`` — reference seconds (:mod:`probe`) for each bring-up and for the
  session, the session's wall time, and the process's peak resident memory;
* ``modelled`` — what the simulated database did: outcome counts, kernel
  events, messages, WAL appends and the committed response times.  These
  depend only on the seed, and must be identical with and without
  ``--trace``;
* ``layers`` (with ``--trace``) — per-layer counters from
  :class:`layers.LayerTrace`.

The parent ``run.py`` starts one of these per session so that sessions never
share interpreter state.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE), str(_HERE.parent / "src")]

from layers import LayerTrace  # noqa: E402
from probe import MEMORY_WALK_BYTES, SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

__all__ = ["run_session"]


def _wal_appends(instance) -> int:
    """Log records ever written: the newest LSN survives checkpoint truncation."""
    return sum(site.wal.records[-1].lsn for site in instance.sites.values() if site.wal.records)


def _counters(instance) -> dict:
    net = instance.network.stats
    return {
        "events": instance.sim.processed_events,
        "sent": net.sent,
        "round_trips": net.round_trips,
        "rpc_timeouts": net.rpc_timeouts,
        "dropped": net.dropped,
        "wal_appends": _wal_appends(instance),
        "msgs_handled": sum(site.stats.messages_handled for site in instance.sites.values()),
        "round_trips_saved": instance.monitor.round_trips_saved,
    }


def run_session(name: str, seed: int, trace: bool = False) -> dict:
    """Run one session of workload ``name``; return host, modelled, layer data."""
    workload = WORKLOADS[name]
    # The probe's timer would charge its own work to whichever traced call it
    # interrupts, so a traced session runs without it.
    tracer = LayerTrace() if trace else None
    probe = SpeedProbe()
    if tracer is not None:
        tracer.install()
    else:
        probe.start()
    try:
        return _measure(workload, seed, tracer, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
        else:
            probe.stop()


def _measure(workload, seed: int, tracer, probe: SpeedProbe) -> dict:
    spec = workload.spec()
    started = probe.begin()
    instance = workload.build(seed)
    if tracer is not None:
        tracer.sim = instance.sim
    instance.start()
    setups = [probe.end(started)]
    setup_layers = tracer.take() if tracer is not None else None

    before = _counters(instance)
    started = probe.begin()
    wall_started = time.perf_counter()
    result = instance.run_workload(spec)
    wall_s = time.perf_counter() - wall_started
    session_s = probe.end(started)
    speed = probe.speed
    # The probe's buffer is allocated before the bring-up and held throughout.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - MEMORY_WALK_BYTES // 1024
    after = _counters(instance)
    session_layers = tracer.take() if tracer is not None else None
    outcomes = [outcome.status for outcome in result.outcomes]
    records = instance.monitor.records
    modelled = {key: after[key] - before[key] for key in after}
    modelled.update(
        attempted=spec.n_transactions,
        outcomes=len(outcomes),
        committed=outcomes.count("COMMITTED"),
        aborted=outcomes.count("ABORTED"),
        lost=outcomes.count("LOST"),
        attempts=sum(outcome.attempts for outcome in result.outcomes),
        serializable=result.serializable,
        fault_events=len(result.fault_log),
        span_tu=(
            max(r.submitted_at + (r.response_time or 0.0) for r in records)
            - min(r.submitted_at for r in records)
            if records
            else 0.0
        ),
        response_times=sorted(instance.monitor.response_times),
    )

    report: dict = {"modelled": modelled}
    if tracer is not None:
        lock_stats = [manager.stats for manager in tracer.lock_managers]
        report["layers"] = {
            "setup": setup_layers,
            "session": session_layers,
            "session_s": wall_s,  # wall time, like the layer timers
            "spans": len(instance.span_tracer.spans) if instance.span_tracer else 0,
            "locks": {
                field: sum(getattr(stats, field) for stats in lock_stats)
                for field in ("acquired", "waits", "deadlocks", "timeouts", "total_wait_time")
            },
            "missing": tracer.missing,
        }
    else:
        # Further bring-ups, timed only, for a steady median set-up time.
        del instance, result, records
        for _ in range(workload.setups_per_session - 1):
            gc.collect()
            started = probe.begin()
            workload.build(seed).start()
            setups.append(probe.end(started))
    report["host"] = {
        "setup_s": setups,
        "session_s": session_s,
        "session_wall_s": wall_s - probe.section_probe_s,
        "speed": speed,
        "peak_rss_kb": peak_rss_kb,
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="collect per-layer counters")
    args = parser.parse_args(argv)
    print(json.dumps(run_session(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

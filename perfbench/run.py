"""Rainbow benchmark: seeded sessions, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uniform-bigcat --seed 1 --seconds 15 --trace 0

A run executes a fixed number of sessions of one workload (set by
``--seconds``, see ``workloads.py``), each in a fresh interpreter, with
per-session seeds derived from ``--seed``.  It prints one line per metric
and, as its last line, a JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: host cost (``txn_per_s``,
``setup_s``, ``peak_rss_mb``; times in reference seconds from ``probe.py``) and the modelled
system's behaviour (pooled over the sessions; identical for a seed).
``--trace 1`` runs each session untraced and then under
:class:`layers.LayerTrace`, checks that both made the same decisions, and
reports the per-layer metrics.  A failed correctness check prints the
result with ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
if not (_SRC / "repro").is_dir():
    # Measure the checkout's own sources, never an installed copy.
    sys.exit(f"error: no Rainbow sources at {_SRC}; run from the repository root")
sys.path[:0] = [str(_HERE), str(_SRC)]

from workloads import DEFAULT_SEED, WORKLOADS, session_seeds  # noqa: E402

__all__ = ["end_to_end_metrics", "layer_metrics", "tail_percentile", "main"]

#: A run must end within this many host seconds.
_BUDGET_S = 170.0


class BenchmarkError(Exception):
    """The run could not produce a result (a session crashed or overran)."""


# -- sessions --------------------------------------------------------------------
def _run_child(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    command = [
        sys.executable,
        str(_HERE / "session.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if trace:
        command.append("--trace")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"time budget of {_BUDGET_S:.0f} s exhausted")
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=remaining, check=False
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"session seed {seed} overran the time budget") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise BenchmarkError(f"session seed {seed} exited with status {done.returncode}")
    return json.loads(lines[-1])


def _check_session(seed: int, modelled: dict) -> list[str]:
    """Correctness of one session's outputs; returns the problems found."""
    problems = []
    if modelled["serializable"] is not True:
        problems.append(f"seed {seed}: committed history is not serializable")
    resolved = modelled["committed"] + modelled["aborted"] + modelled["lost"]
    if not resolved == modelled["outcomes"] == modelled["attempted"]:
        problems.append(
            f"seed {seed}: {resolved} resolved and {modelled['outcomes']} outcomes "
            f"for {modelled['attempted']} transactions"
        )
    return problems


# -- metrics ---------------------------------------------------------------------
def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """(p, value, samples beyond) of sorted ``values``: p99, or the highest
    percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    for pct in (99, 98, 95, 90, 75, 50):
        index = max(0, math.ceil(pct * n / 100) - 1)
        if n - index - 1 >= 10:
            break
    return pct, values[index], n - index - 1


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(reports: list[dict]) -> tuple[dict[str, tuple[float, str]], str]:
    """The nine end-to-end metrics of a set of untraced sessions, and a note."""
    host = [report["host"] for report in reports]
    modelled = [report["modelled"] for report in reports]

    def total(key: str) -> float:
        return sum(entry[key] for entry in modelled)

    committed = total("committed")
    times = sorted(t for entry in modelled for t in entry["response_times"])
    pct, tail, beyond = tail_percentile(times)
    metrics = {
        # Pooled over the sessions: seeds differ in work per transaction, and
        # a ratio of sums averages that out better than a median of ratios.
        "txn_per_s": (total("attempted") / sum(h["session_s"] for h in host), "txn/s"),
        "setup_s": (statistics.median(t for h in host for t in h["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(h["peak_rss_kb"] / 1024 for h in host), "MB"),
        "commit_rate": (_ratio(committed, total("attempted")), "share"),
        "resp_p50_tu": (statistics.median(times), "tu"),
        "resp_p99_tu": (tail, "tu"),
        "msgs_per_commit": (_ratio(total("sent"), committed), "msgs"),
        "round_trips_per_commit": (_ratio(total("round_trips"), committed), "round_trips"),
        "commits_per_tu": (_ratio(committed, total("span_tu")), "commits/tu"),
    }
    note = (
        f"response times: {len(times)} committed samples; "
        f"resp_p99_tu is p{pct} with {beyond} samples beyond it\n"
        f"host speed during the sessions: "
        + ", ".join(f"{h['speed']:.3f}" for h in host)
        + " (1.0 = reference)"
    )
    return metrics, note


def layer_metrics(
    traced: list[dict], untraced: list[dict]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced sessions (and their untraced twins)."""
    session: dict[str, list] = {}
    setup: dict[str, list] = {}
    for report in traced:
        for phase, into in (("session", session), ("setup", setup)):
            for key, values in report["layers"][phase].items():
                into[key] = [a + b for a, b in zip(into.get(key, [0] * 6), values)]

    def stat(table: dict, layer: str, *names: str) -> list:
        """Summed [calls, resumes, self_ns, total_ns, sim_tu, raised] over keys."""
        sums = [0] * 6
        for key, values in table.items():
            key_layer, _, qualified = key.partition(":")
            method = qualified.rsplit(".", 1)[-1]
            if key_layer == layer and (not names or method in names or qualified in names):
                sums = [a + b for a, b in zip(sums, values)]
        return sums

    def modelled(key: str) -> float:
        return sum(report["modelled"][key] for report in traced)

    def layers(key: str) -> float:
        return sum(report["layers"][key] for report in traced)

    def locks(key: str) -> float:
        return sum(report["layers"]["locks"][key] for report in traced)

    commits = modelled("committed")
    session_ns = layers("session_s") * 1e9

    def per_commit(value: float) -> float:
        return _ratio(value, commits)

    def self_us(entry: list, per: int = 0) -> float:
        """Self host µs per call (``per=0``) or per resume (``per=1``)."""
        return _ratio(entry[2], entry[per]) / 1e3

    def call_s(entry: list) -> float:
        """Inclusive host seconds per call."""
        return _ratio(entry[3], entry[0]) / 1e9

    def per_setup(entry: list) -> float:
        """Inclusive host seconds per bring-up (one per traced session)."""
        return entry[3] / 1e9 / len(traced)

    local_ops = stat(session, "site", "local_read", "local_prewrite")
    ccp_ops = stat(session, "ccp", "read", "prewrite")
    rcp_ops = stat(session, "rcp", "do_read", "do_write")
    acp_runs = stat(session, "acp", "run")
    txn_all = stat(session, "txn")
    obs_all = stat(session, "obs")
    return {
        "sim.events_per_commit": (per_commit(modelled("events")), "count"),
        "sim.processes_per_commit": (per_commit(stat(session, "sim", "process")[0]), "count"),
        "sim.self_share": (_ratio(stat(session, "sim")[2], session_ns), "share"),
        "net.send_us": (self_us(stat(session, "net", "Network.send")), "us"),
        "net.rpcs_per_commit": (per_commit(stat(session, "net", "request")[0]), "count"),
        "net.rpc_timeouts_per_commit": (per_commit(modelled("rpc_timeouts")), "count"),
        "net.dropped_share": (_ratio(modelled("dropped"), modelled("sent")), "share"),
        "site.local_ops_per_commit": (per_commit(local_ops[0]), "count"),
        "site.local_op_us": (self_us(local_ops), "us"),
        "site.msgs_handled_per_commit": (per_commit(modelled("msgs_handled")), "count"),
        "site.prepare_us": (self_us(stat(session, "site", "local_prepare")), "us"),
        "site.commit_us": (self_us(stat(session, "site", "local_commit")), "us"),
        "site.recover_us": (self_us(stat(session, "site", "recover")), "us"),
        "locks.acquires_per_commit": (per_commit(locks("acquired")), "count"),
        "locks.wait_share": (_ratio(locks("waits"), locks("acquired")), "share"),
        "locks.wait_tu_per_commit": (per_commit(locks("total_wait_time")), "tu"),
        "locks.deadlocks": (locks("deadlocks"), "count"),
        "locks.timeouts": (locks("timeouts"), "count"),
        "wal.appends_per_commit": (
            per_commit(
                stat(
                    session, "wal",
                    "log_prepare", "log_precommit", "log_commit", "log_abort", "log_end",
                )[0]
            ),
            "count",
        ),
        "wal.checkpoint_us": (self_us(stat(session, "wal", "checkpoint")), "us"),
        "wal.recover_us": (self_us(stat(session, "wal", "recover_state")), "us"),
        "ccp.calls_per_commit": (per_commit(ccp_ops[0]), "count"),
        "ccp.resume_us": (self_us(ccp_ops, per=1), "us"),
        "ccp.wait_tu_per_call": (_ratio(ccp_ops[4], ccp_ops[0]), "tu"),
        "ccp.abort_share": (_ratio(ccp_ops[5], ccp_ops[0]), "share"),
        "rcp.copies_per_op": (_ratio(local_ops[0], rcp_ops[0]), "count"),
        "rcp.op_tu": (_ratio(rcp_ops[4], rcp_ops[0]), "tu"),
        "acp.runs_per_commit": (per_commit(acp_runs[0]), "count"),
        "acp.run_tu": (_ratio(acp_runs[4], acp_runs[0]), "tu"),
        "acp.resume_us": (self_us(acp_runs, per=1), "us"),
        "txn.attempts_per_commit": (
            per_commit(stat(session, "txn", "run_transaction")[0]),
            "count",
        ),
        "txn.resume_us": (self_us(txn_all, per=1), "us"),
        "txn.round_trips_saved_per_commit": (per_commit(modelled("round_trips_saved")), "count"),
        "history.check_s": (call_s(stat(session, "history", "check_serializable")), "s"),
        "monitor.txn_finished_us": (self_us(stat(session, "monitor", "txn_finished")), "us"),
        "monitor.output_statistics_s": (
            call_s(stat(session, "monitor", "output_statistics")),
            "s",
        ),
        "obs.spans_per_commit": (per_commit(layers("spans")), "count"),
        "obs.span_us": (self_us(obs_all), "us"),
        "obs.share": (_ratio(obs_all[2], session_ns), "share"),
        "nameserver.catalog_decode_s": (per_setup(stat(setup, "nameserver", "from_dict")), "s"),
        "core.build_s": (per_setup(stat(setup, "core", "__init__")), "s"),
        "core.start_s": (per_setup(stat(setup, "core", "start")), "s"),
        "workload.make_txn_us": (self_us(stat(session, "workload", "make_transaction")), "us"),
        "bench.trace_overhead": (
            _ratio(layers("session_s"), sum(r["host"]["session_wall_s"] for r in untraced)),
            "ratio",
        ),
    }


# -- entry point -----------------------------------------------------------------
def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + _BUDGET_S
    # A traced run executes every session twice, the traced pass about
    # twice as slow, so it runs a third as many sessions.
    sessions = workload.sessions(args.seconds / 3 if args.trace else args.seconds)
    seeds = session_seeds(args.seed, sessions)

    problems: list[str] = []
    untraced, traced = [], []
    try:
        for seed in seeds:
            report = _run_child(args.workload, seed, False, deadline)
            problems += _check_session(seed, report["modelled"])
            untraced.append(report)
            if args.trace:
                twin = _run_child(args.workload, seed, True, deadline)
                if twin["modelled"] != report["modelled"]:
                    problems.append(f"seed {seed}: traced session differs from untraced")
                traced.append(twin)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    attempted = sum(report["modelled"]["attempted"] for report in untraced)
    failed = sum(report["modelled"]["lost"] for report in untraced)
    if problems:
        failed = attempted
    print(f"workload {args.workload}: seed {args.seed}, {sessions} sessions "
          f"(seeds {seeds[0]}..{seeds[-1]}), trace {args.trace}")
    if args.trace:
        metrics = layer_metrics(traced, untraced)
        missing = sorted({name for report in traced for name in report["layers"]["missing"]})
        if missing:
            print(f"not traced (absent from the program): {', '.join(missing)}")
    else:
        metrics, note = end_to_end_metrics(untraced)
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

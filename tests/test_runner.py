"""Tests for the parallel trial-execution engine (`repro.experiments.runner`).

The heart of the contract: ``n_jobs`` only ever changes wall-clock time.
Results come back in trial order, parallel runs match serial runs exactly,
dead workers degrade to in-parent execution, and trial exceptions surface
to the caller the same way they would serially.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.experiments import load_balance, protocol_matrix
from repro.experiments.common import build_instance
from repro.experiments.runner import Trial, resolve_jobs, run_trials, sweep
from repro.workload.spec import WorkloadSpec


# -- module-level trial functions (spawn workers pickle them by reference) --

def _square(x):
    return x * x


def _raise_value_error(x):
    raise ValueError(f"boom {x}")


def _die_in_worker(x):
    """Kill the process when run in a pool worker; succeed in the parent."""
    if multiprocessing.parent_process() is not None:
        os._exit(17)
    return x * 10


def _session_fingerprint(seed):
    """Run one small session and summarise its per-transaction history."""
    instance = build_instance(3, 12, 2, seed=seed, settle_time=30.0)
    instance.run_workload(
        WorkloadSpec(
            n_transactions=12,
            arrival="poisson",
            arrival_rate=0.5,
            min_ops=2,
            max_ops=4,
            read_fraction=0.7,
        )
    )
    return [
        (r.txn_id, r.home_site, r.status, r.abort_cause, r.response_time, r.messages)
        for r in instance.monitor.records
    ]


class TestResolveJobs:
    def test_explicit_positive(self):
        assert resolve_jobs(3, 10) == 3

    def test_clamped_to_trials(self):
        assert resolve_jobs(16, 2) == 2

    def test_none_zero_negative_mean_cores(self):
        cores = os.cpu_count() or 1
        assert resolve_jobs(None, 100) == min(cores, 100)
        assert resolve_jobs(0, 100) == min(cores, 100)
        assert resolve_jobs(-1, 100) == min(cores, 100)

    def test_never_below_one(self):
        assert resolve_jobs(-999, 10) == 1
        assert resolve_jobs(1, 0) == 1


class TestRunTrials:
    def test_empty(self):
        assert run_trials([], n_jobs=4) == []

    def test_serial_preserves_order(self):
        trials = [Trial(_square, {"x": x}) for x in range(8)]
        assert run_trials(trials, n_jobs=1) == [x * x for x in range(8)]

    def test_parallel_matches_serial(self):
        trials = [Trial(_square, {"x": x}) for x in range(10)]
        assert run_trials(trials, n_jobs=4) == run_trials(trials, n_jobs=1)

    def test_trial_exception_surfaces_serially(self):
        trials = [Trial(_square, {"x": 1}), Trial(_raise_value_error, {"x": 2})]
        with pytest.raises(ValueError, match="boom 2"):
            run_trials(trials, n_jobs=1)

    def test_trial_exception_surfaces_in_parallel(self):
        trials = [Trial(_square, {"x": 1}), Trial(_raise_value_error, {"x": 2})]
        with pytest.raises(ValueError, match="boom 2"):
            run_trials(trials, n_jobs=2)

    def test_dead_worker_degrades_to_parent_execution(self):
        trials = [Trial(_die_in_worker, {"x": x}) for x in range(4)]
        assert run_trials(trials, n_jobs=2) == [0, 10, 20, 30]

    def test_sweep_merges_common_kwargs(self):
        results = sweep(_square, [{"x": 2}, {"x": 5}], n_jobs=1)
        assert results == [4, 25]


class TestDeterminismUnderParallelism:
    def test_experiment_table_identical_across_n_jobs(self):
        kwargs = dict(
            rcps=("ROWA", "QC"), ccps=("2PL",), acps=("2PC",),
            n_txns=10, n_sites=3, n_items=12, seed=77,
        )
        serial = protocol_matrix.run(**kwargs, n_jobs=1)
        parallel = protocol_matrix.run(**kwargs, n_jobs=4)
        assert parallel.rows == serial.rows
        assert parallel.to_text() == serial.to_text()
        assert parallel.to_json() == serial.to_json()

    def test_load_balance_identical_across_n_jobs(self):
        serial = load_balance.run(n_txns=16, n_jobs=1)
        parallel = load_balance.run(n_txns=16, n_jobs=2)
        assert parallel.rows == serial.rows

    def test_same_seed_sessions_identical_histories(self):
        first = _session_fingerprint(seed=5)
        second = _session_fingerprint(seed=5)
        assert first and first == second

    def test_parallel_workers_reproduce_parent_histories(self):
        trials = [Trial(_session_fingerprint, {"seed": seed}) for seed in (3, 9)]
        in_parent = run_trials(trials, n_jobs=1)
        in_workers = run_trials(trials, n_jobs=2)
        assert in_workers == in_parent


class TestTableJson:
    def test_to_json_round_trips(self):
        import json

        table = load_balance.run(n_txns=12)
        payload = json.loads(table.to_json())
        assert payload["title"] == table.title
        assert payload["columns"] == table.columns
        assert payload["rows"] == table.rows
        assert payload["notes"] == table.notes

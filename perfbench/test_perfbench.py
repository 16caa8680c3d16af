"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` (about a minute)."""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE), str(_HERE.parent / "src")]

import run  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((_HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _session(workload: str, seed: int, trace: bool = False) -> dict:
    return run._run_child(workload, seed, trace, time.monotonic() + 170)


def _bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(_HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=False, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items() if workload.in_benchmark
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spec_and_config_validate(name):
    workload = WORKLOADS[name]
    workload.spec().validate()
    workload.build(1).config.validate()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_modelled_metrics_and_counts(name):
    first = _session(name, DEFAULT_SEED)
    assert first["modelled"] == _session(name, DEFAULT_SEED)["modelled"]
    assert first["modelled"] != _session(name, HELD_OUT_SEED)["modelled"]


@pytest.mark.parametrize("name", ["colocated-wan-traced", "crash-recover"])
def test_traced_session_matches_untraced(name):
    assert _session(name, 5, trace=True)["modelled"] == _session(name, 5)["modelled"]


def test_printed_metrics_match_benchmark_json():
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench("hotspot-closed", trace)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace:
            obs = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("obs.")}
            assert obs and not any(obs.values())
        else:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 2001)]
    assert run.tail_percentile(values) == (99, 1980.0, 20)
    assert run.tail_percentile(values[:200]) == (95, 190.0, 10)


def _busy(rounds: int) -> int:
    total = 0
    for index in range(rounds):
        total += index % 7
    return total


def test_speed_probe_scales_with_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    probe = SpeedProbe(period_s=0.005)
    probe.start()
    try:
        small = []
        large = []
        for _ in range(3):
            started = probe.begin()
            _busy(300_000)
            small.append(probe.end(started))
            started = probe.begin()
            _busy(600_000)
            large.append(probe.end(started))
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert all(value > 0 for value in small + large)
    # Twice the work reads about twice the reference seconds.
    assert 1.3 < sorted(large)[1] / sorted(small)[1] < 3.0

"""Every id a session uses comes from the instance (or tier) that uses it.

Transaction ids feed the timestamps that break ties between transactions,
so a seeded session must get the same ids wherever it runs in a process:
after other sessions, other instances or other web tiers.
"""

from dataclasses import asdict

from repro.experiments import ablation
from repro.gui.applet import GuiApplet
from repro.txn.transaction import Operation, Transaction
from repro.web.tier import RainbowWebTier
from repro.workload.spec import WorkloadSpec
from tests.conftest import quick_instance, run_cli


def _trace_session(tmp_path, index):
    """One ``repro trace --seed 7`` run: its stdout and its Chrome JSON."""
    out = tmp_path / f"trace{index}.json"
    stdout = run_cli("trace", "--seed", "7", "--out", str(out))
    return stdout, out.read_bytes()


def test_trace_session_repeats_exactly_in_one_process(tmp_path):
    runs = [_trace_session(tmp_path, index) for index in range(3)]
    assert "40 committed" in runs[0][0]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_ablation_trials_do_not_depend_on_earlier_sessions():
    def trial(strategy):
        return ablation._trial(strategy, n_txns=120, mpl=8, n_sites=4, n_items=32, seed=61)

    first = [trial("detect"), trial("wound_wait")]
    quick_instance().run_workload(WorkloadSpec(n_transactions=5))
    assert [trial("detect"), trial("wound_wait")] == first


def test_sessions_of_one_instance_share_its_id_space():
    instance = quick_instance(n_sites=3, n_items=12, settle_time=30)
    spec = WorkloadSpec(
        n_transactions=8, arrival_rate=0.5, min_ops=2, max_ops=3, restart_on_abort=True
    )
    first = instance.run_workload(spec)
    manual = instance.manual_workload()
    manual.add(Transaction(ops=[Operation.write("x1", 1)], home_site="site1"))
    manual.add(Transaction(ops=[Operation.read("x2")], home_site="site2"), at=5.0)
    second = instance.run_manual(manual)
    direct = Transaction(ops=[Operation.write("x3", 3)], home_site="site3")
    instance.run_transactions([direct])
    third = instance.run_workload(spec)

    outcomes = first.outcomes + second.outcomes + third.outcomes
    assert len(outcomes) == 8 + 2 + 8
    assert all(outcome.status in ("COMMITTED", "ABORTED") for outcome in outcomes)
    assert direct.txn_id is not None and direct.committed
    # One record per attempt, restarts included, numbered 1..n without gaps
    # or repeats across all four submission paths.
    ids = [record.txn_id for record in instance.monitor.records]
    assert sorted(ids) == list(range(1, len(ids) + 1))


def _web_session():
    instance = quick_instance(n_sites=4, n_items=8, settle_time=20)
    instance.start()
    tier = RainbowWebTier(instance)
    applet = GuiApplet(tier)
    applet.login("student", "student")
    workload_id = applet.start_workload(
        WorkloadSpec(n_transactions=6, arrival_rate=1.0, min_ops=2, max_ops=3)
    )
    instance.sim.run(until=instance.sim.now + 200)
    assert applet.workload_status(workload_id)["done"]
    records = [
        (record.txn_id, record.home_site, record.status, record.response_time)
        for record in instance.monitor.records
    ]
    statistics = asdict(instance.monitor.output_statistics())
    for host_time in ("wall_clock_seconds", "events_per_second"):
        del statistics[host_time]
    return applet.token, applet.endpoint.address, workload_id, records, statistics


def test_two_web_tiers_run_the_same_workload_identically():
    first = _web_session()
    assert first[:3] == ("tok1-student", "user-host/applet1", 1)
    assert _web_session() == first

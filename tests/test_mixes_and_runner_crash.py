"""Tests for workload mixes and ServletRunner crash/recovery."""

import random

import pytest

from repro.errors import WorkloadError
from repro.gui.applet import GuiApplet
from repro.txn.transaction import OpKind
from repro.web.tier import RainbowWebTier
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import MixClass, WorkloadSpec
from tests.conftest import quick_instance


def make_generator(instance, spec, seed=0):
    return WorkloadGenerator(
        instance.sim, instance.network, instance.directory, instance.catalog,
        spec, random.Random(seed), name=f"wlg-mix{seed}", txn_ids=instance.txn_ids,
    )


class TestMixClasses:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            MixClass(weight=0, min_ops=1, max_ops=2, read_fraction=0.5).validate()
        with pytest.raises(WorkloadError):
            MixClass(weight=1, min_ops=3, max_ops=2, read_fraction=0.5).validate()
        with pytest.raises(WorkloadError):
            MixClass(weight=1, min_ops=1, max_ops=2, read_fraction=2.0).validate()
        MixClass(weight=1, min_ops=1, max_ops=2, read_fraction=0.5).validate()

    def test_empty_mix_rejected(self):
        spec = WorkloadSpec(mix=[])
        with pytest.raises(WorkloadError):
            spec.validate()

    def test_mix_overrides_sizes_and_rw(self):
        instance = quick_instance(n_items=64)
        scan = MixClass(weight=1, min_ops=10, max_ops=12, read_fraction=1.0,
                        name="scan")
        update = MixClass(weight=1, min_ops=1, max_ops=2, read_fraction=0.0,
                          name="update")
        generator = make_generator(instance, WorkloadSpec(mix=[scan, update]))
        sizes = set()
        for _ in range(40):
            txn = generator.make_transaction()
            sizes.add(len(txn.ops))
            kinds = {op.kind for op in txn.ops}
            if len(txn.ops) >= 10:
                assert kinds == {OpKind.READ}
            if len(txn.ops) <= 2:
                assert OpKind.READ not in kinds
        assert any(size >= 10 for size in sizes)
        assert any(size <= 2 for size in sizes)

    def test_weights_respected(self):
        instance = quick_instance(n_items=64)
        heavy = MixClass(weight=9, min_ops=1, max_ops=1, read_fraction=1.0)
        rare = MixClass(weight=1, min_ops=5, max_ops=5, read_fraction=1.0)
        generator = make_generator(instance, WorkloadSpec(mix=[heavy, rare]))
        sizes = [len(generator.make_transaction().ops) for _ in range(300)]
        share_heavy = sizes.count(1) / len(sizes)
        assert share_heavy > 0.8

    def test_mix_with_increments(self):
        instance = quick_instance(n_items=64)
        rmw = MixClass(weight=1, min_ops=2, max_ops=2, read_fraction=0.0,
                       increment_fraction=1.0)
        generator = make_generator(instance, WorkloadSpec(mix=[rmw]))
        txn = generator.make_transaction()
        assert all(op.kind == OpKind.INCREMENT for op in txn.ops)

    def test_mixed_session_runs(self):
        instance = quick_instance(n_items=32, settle_time=40)
        spec = WorkloadSpec(
            n_transactions=16,
            arrival_rate=0.6,
            mix=[
                MixClass(weight=3, min_ops=1, max_ops=2, read_fraction=0.0,
                         name="update"),
                MixClass(weight=1, min_ops=6, max_ops=8, read_fraction=1.0,
                         name="scan"),
            ],
        )
        result = instance.run_workload(spec)
        assert result.statistics.finished == 16
        assert result.serializable is True

    def test_mix_via_web_tier_dict_spec(self):
        instance = quick_instance(n_items=16, settle_time=20)
        instance.start()
        tier = RainbowWebTier(instance)
        applet = GuiApplet(tier)
        applet.login("student", "student")
        workload_id = applet.start_workload(
            {
                "n_transactions": 4,
                "arrival_rate": 1.0,
                "mix": [
                    {"weight": 1, "min_ops": 1, "max_ops": 2, "read_fraction": 0.5}
                ],
            }
        )
        instance.sim.run(until=instance.sim.now + 150)
        assert applet.workload_status(workload_id)["done"]


class TestRunnerCrash:
    def _domain(self):
        instance = quick_instance(n_items=8, settle_time=10)
        instance.start()
        tier = RainbowWebTier(instance)
        applet = GuiApplet(tier)
        applet.login("student", "student")
        return instance, tier, applet

    def test_home_runner_crash_makes_gui_unreachable(self):
        instance, tier, applet = self._domain()
        tier.runners[tier.home_host].crash()
        response = applet.call("pmlet", "statistics")
        assert not response.ok
        assert "unreachable" in response.error

    def test_home_runner_recovery_restores_gui(self):
        instance, tier, applet = self._domain()
        runner = tier.runners[tier.home_host]
        runner.crash()
        runner.recover()
        response = applet.call("pmlet", "statistics")
        assert response.ok

    def test_remote_runner_crash_only_breaks_forwarding(self):
        instance, tier, applet = self._domain()
        # Crash the runner on site3's host: site_stats for it fails, but
        # global statistics (home-served) keep working.
        host = instance.sites["site3"].host
        tier.runners[host].crash()
        response = applet.call("siterunnerlet", "site_stats", {"site": "site3"})
        assert not response.ok
        assert applet.call("pmlet", "statistics").ok
        # The core is unaffected: transactions still run.
        from repro.txn.transaction import Operation, Transaction

        txn = Transaction(ops=[Operation.write("x1", 5)], home_site="site1")
        process = instance.submit(txn)
        instance.sim.run(until=process)
        assert txn.committed

    def test_runner_crash_via_injector(self):
        instance, tier, applet = self._domain()
        instance.injector.crash_now(f"runner-{tier.home_host}")
        assert not tier.runners[tier.home_host].up
        instance.injector.recover_now(f"runner-{tier.home_host}")
        assert tier.runners[tier.home_host].up
        assert applet.call("pmlet", "statistics").ok

    def test_crash_recover_idempotent(self):
        instance, tier, applet = self._domain()
        runner = tier.runners[tier.home_host]
        runner.crash()
        runner.crash()
        runner.recover()
        runner.recover()
        assert runner.up

"""EXP-FIG3 / EXP-FIG4 / EXP-FIGA1 / EXP-FIGA2: the GUI panels.

Regenerates the login/downloading applet (Figure 3), the Protocols
Configuration window (Figure 4), the Database Replication Configuration
panel (Figure A-1) and the Manual Workload Generation panel (Figure A-2),
by driving the real applet→servlet paths, not by mocking.
"""

from benchmarks.conftest import emit, run_once
from repro.core.config import RainbowConfig
from repro.core.instance import RainbowInstance
from repro.gui.applet import GuiApplet
from repro.gui.panels import (
    render_login_panel,
    render_manual_workload_panel,
    render_protocol_panel,
    render_replication_panel,
)
from repro.protocols.base import acp_registry, ccp_registry, rcp_registry
from repro.txn.transaction import Operation, Transaction
from repro.web.tier import RainbowWebTier


def build_gui_domain():
    config = RainbowConfig.quick(n_sites=4, n_items=8, replication_degree=3)
    instance = RainbowInstance(config)
    instance.start()
    tier = RainbowWebTier(instance)
    return instance, tier


def test_fig3_login_panel(benchmark):
    def scenario():
        instance, tier = build_gui_domain()
        applet = GuiApplet(tier)
        page = applet.download_page()
        role = applet.login("student", "student")
        return instance, tier, applet, page, role

    instance, tier, applet, page, role = run_once(benchmark, scenario)
    panel = render_login_panel(tier.home_host, applet.url, logged_in_as=role)
    emit("Figure 3 — Rainbow GUI downloading applet", panel)
    assert page.ok and page.data["page"] == "RainbowDemo.html"
    assert applet.url == f"http://{tier.home_host}:8080/RainbowDemo.html"
    assert role == "student"
    # Students do not see the Administration menu; admins do.
    assert "Administration" not in panel
    admin = GuiApplet(tier)
    assert admin.login("admin", "admin") == "admin"
    admin_panel = render_login_panel(tier.home_host, admin.url, logged_in_as="admin")
    assert "Administration" in admin_panel


def test_fig4_protocol_panel(benchmark):
    def scenario():
        config = RainbowConfig.quick(n_sites=2, n_items=4)
        # Exercise every selectable combination (the panel's drop-downs).
        combos = []
        for rcp in rcp_registry():
            for ccp in ccp_registry():
                for acp in acp_registry():
                    config.protocols.rcp = rcp
                    config.protocols.ccp = ccp
                    config.protocols.acp = acp
                    config.protocols.validate()
                    combos.append((rcp, ccp, acp))
        return config, combos

    config, combos = run_once(benchmark, scenario)
    panel = render_protocol_panel(config.protocols)
    emit("Figure 4 — Protocols Configuration window", panel)
    assert len(combos) == len(rcp_registry()) * len(ccp_registry()) * len(acp_registry())
    assert {"ROWA", "QC"} <= set(rcp_registry())
    assert {"2PL", "TSO", "MVTO"} <= set(ccp_registry())
    assert {"2PC", "3PC"} <= set(acp_registry())
    for name in ("RCP", "CCP", "ACP"):
        assert name in panel


def test_figa1_replication_panel(benchmark):
    def scenario():
        config = RainbowConfig.quick(n_sites=4, n_items=8, replication_degree=3)
        catalog = config.catalog()
        catalog.define_fragment("accounts", ["x1", "x2", "x3"], "demo fragment")
        # Weighted copy + explicit quorums on one item, as the panel allows.
        catalog.item("x1").placement["site1"] = 2
        catalog.item("x1").read_quorum = 2
        catalog.item("x1").write_quorum = 3
        catalog.validate()
        return catalog

    catalog = run_once(benchmark, scenario)
    panel = render_replication_panel(catalog)
    emit("Figure A-1 — Database Replication Configuration panel", panel)
    assert "v=2" in panel  # the weighted copy is visible
    assert "accounts" in panel
    for item in catalog.items():
        r, w = item.effective_read_quorum(), item.effective_write_quorum()
        assert r + w > item.total_votes


def test_figa2_manual_workload_panel(benchmark):
    def scenario():
        instance, tier = build_gui_domain()
        applet = GuiApplet(tier)
        applet.login("student", "student")
        t1 = Transaction(
            ops=[Operation.read("x1"), Operation.write("x2", 10)], home_site="site1"
        )
        t2 = Transaction(
            ops=[Operation.write("x1", 20), Operation.read("x3")], home_site="site2"
        )
        outcomes = {}
        for txn in (t1, t2):
            status = applet.submit_transaction(txn)["status"]
            outcomes[txn.txn_id] = status  # numbered on submission
        return [t1, t2], outcomes

    txns, outcomes = run_once(benchmark, scenario)
    panel = render_manual_workload_panel(txns, outcomes)
    emit("Figure A-2 — Manual Workload Generation panel", panel)
    assert list(outcomes.values()) == ["COMMITTED", "COMMITTED"]
    assert "r[x1]" in panel and "w[x2=10]" in panel

"""ASCII renderings of the Rainbow GUI windows.

Each function reproduces the *information content* of one figure of the
paper as a text panel: the login/downloading applet (Figure 3), the
Protocols Configuration window (Figure 4), the transaction-processing
output of a session (Figure 5), the Database Replication Configuration
panel (Figure A-1), and the Manual Workload Generation panel (Figure A-2),
plus the two architecture figures (1 and 2).

Panels are plain strings, so they render in terminals, notebooks, and test
assertions alike.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.config import ProtocolConfig
from repro.monitor.stats import OutputStatistics, TxnRecord
from repro.nameserver.catalog import Catalog
from repro.protocols.base import acp_registry, ccp_registry, rcp_registry
from repro.txn.transaction import Transaction

__all__ = [
    "render_box",
    "render_table",
    "render_login_panel",
    "render_protocol_panel",
    "render_replication_panel",
    "render_manual_workload_panel",
    "render_session_panel",
    "render_sites_panel",
    "render_traffic_panel",
    "render_functional_architecture",
    "render_physical_architecture",
]


def render_box(title: str, lines: Iterable[str], width: int = 72) -> str:
    """Draw a titled box around ``lines``."""
    body = [line[: width - 4] for line in lines]
    inner = max([len(title) + 2] + [len(line) for line in body])
    inner = min(max(inner, 20), width - 4)
    top = f"+-- {title} " + "-" * max(inner - len(title) - 3, 0) + "-+"
    rows = [top]
    for line in body:
        rows.append(f"| {line.ljust(inner)} |")
    rows.append("+" + "-" * (len(top) - 2) + "+")
    return "\n".join(rows)


def render_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Format a fixed-width table as a list of lines."""
    table = [headers] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * widths[col] for col in range(len(headers))))
    return lines


def render_login_panel(home_host: str, url: str, logged_in_as: Optional[str] = None) -> str:
    """Figure 3: the Rainbow GUI downloading applet / login screen."""
    lines = [
        f"Rainbow home host : {home_host}",
        f"URL               : {url}",
        "",
        "User name    : [...............]",
        "Password     : [...............]",
        "",
    ]
    if logged_in_as:
        lines.append(f"Status: logged in as {logged_in_as!r}")
        if logged_in_as == "admin":
            lines.append("Menus : Administration | Configuration | Tx Processing | Display")
        else:
            lines.append("Menus : Configuration | Tx Processing | Display")
    else:
        lines.append("Status: awaiting authorization")
    return render_box("Rainbow GUI Downloading Applet", lines)


def render_protocol_panel(config: ProtocolConfig) -> str:
    """Figure 4: the Protocols Configuration window."""

    def choices(registry: list[str], selected: str) -> str:
        return "  ".join(
            f"(o) {name}" if name == selected.upper() else f"( ) {name}"
            for name in registry
        )

    lines = [
        "Replication Control Protocol (RCP):",
        "    " + choices(rcp_registry(), config.rcp),
        "Concurrency Control Protocol (CCP):",
        "    " + choices(ccp_registry(), config.ccp),
        "Atomic Commit Protocol (ACP):",
        "    " + choices(acp_registry(), config.acp),
        "",
        f"Timeouts: op={config.op_timeout}  vote={config.vote_timeout}  "
        f"ack={config.ack_timeout} (x{config.ack_retries})",
        "",
        "[ Apply ]   [ Save Configuration ]   [ Cancel ]",
    ]
    return render_box("Protocols Configuration", lines)


def render_replication_panel(catalog: Catalog) -> str:
    """Figure A-1: the Database Replication Configuration panel."""
    sites = catalog.all_sites()
    headers = ["item"] + sites + ["votes", "r", "w"]
    rows = []
    for spec in catalog.items():
        row = [spec.name]
        for site in sites:
            votes = spec.placement.get(site)
            row.append(f"v={votes}" if votes else ".")
        row += [
            str(spec.total_votes),
            str(spec.effective_read_quorum()),
            str(spec.effective_write_quorum()),
        ]
        rows.append(row)
    lines = render_table(headers, rows)
    if catalog.fragments():
        lines.append("")
        lines.append("Fragments:")
        for fragment in catalog.fragments():
            lines.append(f"  {fragment.name}: {', '.join(fragment.items)}")
    return render_box("Database Replication Configuration", lines, width=100)


def render_manual_workload_panel(
    txns: list[Transaction], outcomes: Optional[dict[int, str]] = None
) -> str:
    """Figure A-2: the Manual Workload Generation panel.

    A composed transaction has no id until it is submitted; it shows as
    ``new``.
    """
    outcomes = outcomes or {}
    headers = ["txn", "home site", "operations", "outcome"]
    rows = []
    for txn in txns:
        ops = " ".join(str(op) for op in txn.ops)
        label = "new" if txn.txn_id is None else f"T{txn.txn_id}"
        rows.append([label, txn.home_site, ops, outcomes.get(txn.txn_id, "-")])
    lines = render_table(headers, rows)
    lines += ["", "[ Add Operation ]  [ New Transaction ]  [ Submit All ]"]
    return render_box("Manual Workload Generation", lines, width=100)


def render_session_panel(
    statistics: OutputStatistics, recent: Optional[list[TxnRecord]] = None
) -> str:
    """Figure 5: transaction-processing output in a Rainbow session."""
    lines = [f"{label:<34s} {value}" for label, value in statistics.as_rows()]
    if recent:
        lines.append("")
        lines.append("Recent transactions:")
        headers = ["txn", "home", "status", "cause", "resp.time"]
        rows = []
        for record in recent:
            rows.append(
                [
                    f"T{record.txn_id}",
                    record.home_site,
                    record.status,
                    record.abort_cause or "-",
                    "-" if record.response_time is None else f"{record.response_time:.2f}",
                ]
            )
        lines += render_table(headers, rows)
    return render_box("Tx Processing Output", lines, width=96)


def render_sites_panel(sites) -> str:
    """Per-site status table (the Tx Processing menu's per-site view)."""
    headers = [
        "site", "host", "up", "home txns", "msgs", "reads", "prewrites",
        "commits", "aborts", "in-doubt",
    ]
    rows = []
    for site in sorted(sites, key=lambda s: s.name):
        rows.append(
            [
                site.name,
                site.host,
                "yes" if site.up else "DOWN",
                str(site.stats.home_txns_started),
                str(site.stats.messages_handled),
                str(site.stats.reads_served),
                str(site.stats.prewrites_served),
                str(site.stats.commits_applied),
                str(site.stats.aborts_applied),
                str(site.in_doubt_count()),
            ]
        )
    return render_box("Rainbow Sites", render_table(headers, rows), width=110)


def render_traffic_panel(
    network_stats,
    top: int = 10,
    *,
    round_trips_saved: int = 0,
    batched_ops: int = 0,
) -> str:
    """Message-traffic breakdown (part of the Display menu's output).

    Groups the per-type counters into the coarse categories (data access,
    commit protocol, name server, web tier) and lists the busiest types.
    ``round_trips_saved``/``batched_ops`` add message-economy lines when the
    optimizations fired (zero keeps the historical panel unchanged).
    """
    by_type = dict(network_stats.by_type)
    categories: dict[str, int] = {}
    for mtype, count in by_type.items():
        from repro.net.message import MessageType

        categories[MessageType.category(mtype)] = (
            categories.get(MessageType.category(mtype), 0) + count
        )
    lines = [
        f"Messages sent      : {network_stats.sent}",
        f"Delivered / dropped: {network_stats.delivered} / {network_stats.dropped}",
        f"Lost / duplicated  : {network_stats.lost_random} / {network_stats.duplicated}",
        f"Round trips        : {network_stats.round_trips}",
        f"RPC timeouts       : {network_stats.rpc_timeouts}",
    ]
    if round_trips_saved:
        lines.append(f"Round trips saved  : {round_trips_saved}")
    if batched_ops:
        lines.append(f"Batched accesses   : {batched_ops}")
    lines += [
        "",
        "By category:",
    ]
    for category, count in sorted(categories.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {category:<12s} {count}")
    lines.append("")
    lines.append(f"Busiest message types (top {top}):")
    for mtype, count in sorted(by_type.items(), key=lambda kv: -kv[1])[:top]:
        lines.append(f"  {mtype:<16s} {count}")
    return render_box("Message Traffic", lines)


def render_functional_architecture() -> str:
    """Figure 1: the three tiers with their functional mapping."""
    lines = [
        "  [ GUI ]  -->  [ Web Middle Tier ]  -->  [ Rainbow Core ]",
        "",
        "  GUI            : configure, submit workload, inject faults,",
        "                   monitor execution (browser applet)",
        "  Web middle tier: NSRunnerlet SiteRunnerlet WLGlet PMlet (home)",
        "                   NSlet (name-server host), Sitelet (site hosts)",
        "  Rainbow core   : name server + Rainbow sites",
        "                   (RCP: ROWA/QC, CCP: 2PL/TSO/MVTO, ACP: 2PC/3PC)",
    ]
    return render_box("Rainbow architecture (functional mapping)", lines, width=80)


def render_physical_architecture(placement: list[tuple[str, list[str]]],
                                 sites_by_host: dict[str, list[str]],
                                 ns_host: str) -> str:
    """Figure 2: hosts, their ServletRunners/servlets, and core residents."""
    lines = []
    for host, servlets in placement:
        residents = []
        if host == ns_host:
            residents.append("name server")
        residents += [f"site {name}" for name in sites_by_host.get(host, [])]
        lines.append(f"{host}:")
        lines.append(f"  ServletRunner [{', '.join(servlets)}]")
        lines.append(f"  core: {', '.join(residents) if residents else '(none)'}")
        lines.append("")
    if lines and not lines[-1]:
        lines.pop()
    return render_box("Rainbow architecture (physical mapping)", lines, width=90)

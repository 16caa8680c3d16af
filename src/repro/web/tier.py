"""Assembly of the Rainbow web middle tier over a running instance.

:class:`RainbowWebTier` stands up a :class:`~repro.web.servlets.ServletRunner`
on every domain host and installs the six servlets with the paper's
placement rules.  The home host gets the four jump-off servlets
(NSRunnerlet, SiteRunnerlet, WLGlet, PMlet) plus the access-authorization
servlet; NSlet goes to the name server's host; one Sitelet to each host
with Rainbow sites.

Level-one servlets validate the session token and forward over the network
to the level-two servlet on the responsible host, so a ``site_stats``
request from the GUI costs the same two hops it does in the real system.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict
from typing import Optional

from repro.core.instance import RainbowInstance
from repro.errors import AuthorizationError, CatalogError, NetworkError, RpcTimeout, WebTierError
from repro.net.message import MessageType
from repro.web.requests import WebRequest, WebResponse
from repro.web.servlets import RUNNER_NAME, Servlet, ServletRunner
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import WorkloadSpec

__all__ = ["RainbowWebTier", "DEFAULT_USERS"]

#: Default access-authorization table: user -> (password, role).
DEFAULT_USERS = {
    "admin": ("admin", "admin"),
    "student": ("student", "student"),
}

_token_counter = itertools.count(1)
_workload_counter = itertools.count(1)


class AuthServlet(Servlet):
    """The Rainbow access authorization of RainbowDemo.html."""

    name = "auth"

    def __init__(self, tier: "RainbowWebTier"):
        self.tier = tier

    def handle(self, request: WebRequest):
        if request.action == "download_page":
            return WebResponse.success(
                {
                    "page": "RainbowDemo.html",
                    "home_host": self.tier.home_host,
                    "requires_login": True,
                }
            )
        if request.action == "login":
            user = request.args.get("user", "")
            password = request.args.get("password", "")
            entry = self.tier.users.get(user)
            if entry is None or entry[0] != password:
                return WebResponse.failure("access denied")
            token = f"tok{next(_token_counter)}-{user}"
            self.tier.sessions[token] = entry[1]
            return WebResponse.success({"token": token, "role": entry[1]})
        if request.action == "logout":
            self.tier.sessions.pop(request.token, None)
            return WebResponse.success({})
        return WebResponse.failure(f"unknown auth action {request.action!r}")
        yield  # pragma: no cover - generator marker


class NSRunnerlet(Servlet):
    """Home-host jump-off for name-server requests (forwards to NSlet)."""

    name = "nsrunnerlet"

    def __init__(self, tier: "RainbowWebTier"):
        self.tier = tier

    def handle(self, request: WebRequest):
        self.tier.require_role(request.token)
        if request.action in ("lookup_sites", "get_catalog", "ns_status"):
            response = yield from self.runner.forward(
                self.tier.ns_host, "nslet", request.action, request.args, request.token
            )
            return response
        if request.action == "configure_quorums":
            self.tier.require_role(request.token, "admin")
            response = yield from self.runner.forward(
                self.tier.ns_host, "nslet", request.action, request.args, request.token
            )
            return response
        if request.action == "get_config":
            # "The configuration data can be saved for reuse in another
            # session" — the GUI downloads the full instance configuration.
            self.tier.require_role(request.token, "admin")
            return WebResponse.success({"config": self.tier.instance.config.to_dict()})
        return WebResponse.failure(f"unknown NSRunnerlet action {request.action!r}")


class NSlet(Servlet):
    """Lives with the name server; answers metadata requests locally."""

    name = "nslet"

    def __init__(self, tier: "RainbowWebTier"):
        self.tier = tier

    def handle(self, request: WebRequest):
        nameserver = self.tier.instance.nameserver
        if request.action == "lookup_sites":
            return WebResponse.success(
                {"sites": [info.to_dict() for info in nameserver.sites()]}
            )
        if request.action == "get_catalog":
            return WebResponse.success({"catalog": nameserver.catalog.to_dict()})
        if request.action == "ns_status":
            return WebResponse.success(
                {
                    "up": nameserver.up,
                    "host": nameserver.host,
                    "queries_served": nameserver.queries_served,
                    "n_sites": len(nameserver.site_names()),
                }
            )
        if request.action == "configure_quorums":
            try:
                item = nameserver.configure_quorums(
                    request.args["item"],
                    request.args.get("read_quorum"),
                    request.args.get("write_quorum"),
                )
            except CatalogError as error:
                return WebResponse.failure(str(error))
            return WebResponse.success({"item": item.name})
        return WebResponse.failure(f"unknown NSlet action {request.action!r}")
        yield  # pragma: no cover - generator marker


class SiteRunnerlet(Servlet):
    """Home-host jump-off for site management (forwards to Sitelets)."""

    name = "siterunnerlet"

    def __init__(self, tier: "RainbowWebTier"):
        self.tier = tier

    def handle(self, request: WebRequest):
        self.tier.require_role(request.token)
        if request.action == "list_sites":
            return WebResponse.success({"sites": sorted(self.tier.site_hosts)})
        site = request.args.get("site")
        host = self.tier.site_hosts.get(site)
        if host is None:
            return WebResponse.failure(f"unknown site {site!r}")
        if request.action in ("site_stats", "crash_site", "recover_site", "site_state"):
            response = yield from self.runner.forward(
                host, "sitelet", request.action, request.args, request.token
            )
            return response
        return WebResponse.failure(f"unknown SiteRunnerlet action {request.action!r}")


class Sitelet(Servlet):
    """Per-host manager of the Rainbow sites living on that host."""

    name = "sitelet"

    def __init__(self, tier: "RainbowWebTier", host: str):
        self.tier = tier
        self.host = host

    def _site(self, name: str):
        site = self.tier.instance.sites.get(name)
        if site is None or site.host != self.host:
            raise WebTierError(f"site {name!r} is not on host {self.host}")
        return site

    def handle(self, request: WebRequest):
        site = self._site(request.args.get("site", ""))
        if request.action == "site_stats":
            stats = asdict(site.stats)
            stats.update(
                {
                    "up": site.up,
                    "in_doubt": site.in_doubt_count(),
                    "items": len(site.store),
                    "wal_records": len(site.wal),
                }
            )
            return WebResponse.success(stats)
        if request.action == "site_state":
            return WebResponse.success({"snapshot": site.store.snapshot()})
        if request.action == "crash_site":
            self.tier.instance.injector.crash_now(site.name)
            return WebResponse.success({"site": site.name, "up": site.up})
        if request.action == "recover_site":
            self.tier.instance.injector.recover_now(site.name)
            return WebResponse.success({"site": site.name, "up": site.up})
        return WebResponse.failure(f"unknown Sitelet action {request.action!r}")
        yield  # pragma: no cover - generator marker


class WLGlet(Servlet):
    """Transfers transaction-processing requests to Rainbow sites."""

    name = "wlglet"

    def __init__(self, tier: "RainbowWebTier"):
        self.tier = tier
        self.workloads: dict[int, tuple[WorkloadGenerator, object]] = {}

    def handle(self, request: WebRequest):
        self.tier.require_role(request.token)
        instance = self.tier.instance
        if request.action == "submit_txn":
            txn = request.args["txn"]
            address = instance.directory.get(txn.home_site)
            if address is None:
                return WebResponse.failure(f"unknown home site {txn.home_site!r}")
            instance.monitor.txn_submitted(txn)
            try:
                reply = yield self.runner.endpoint.request(
                    address,
                    MessageType.TXN_SUBMIT,
                    {"txn_spec": txn},
                    timeout=request.args.get("timeout", 600.0),
                    txn_id=txn.txn_id,
                )
            except (RpcTimeout, NetworkError) as failure:
                return WebResponse.failure(f"no TXN_RESULT: {failure}")
            return WebResponse.success((reply.payload or {}).get("outcome"))
        if request.action == "start_workload":
            spec = request.args["spec"]
            if isinstance(spec, dict):
                spec = dict(spec)
                if spec.get("mix"):
                    from repro.workload.spec import MixClass

                    spec["mix"] = [
                        entry if isinstance(entry, MixClass) else MixClass(**entry)
                        for entry in spec["mix"]
                    ]
                spec = WorkloadSpec(**spec)
            workload_id = next(_workload_counter)
            generator = WorkloadGenerator(
                instance.sim,
                instance.network,
                instance.directory,
                instance.catalog,
                spec,
                instance.streams.get(f"web-workload-{workload_id}"),
                monitor=instance.monitor,
                name=f"wlg-web{workload_id}",
            )
            process = generator.run()
            self.workloads[workload_id] = (generator, process)
            return WebResponse.success({"workload_id": workload_id})
        if request.action == "workload_status":
            entry = self.workloads.get(request.args.get("workload_id"))
            if entry is None:
                return WebResponse.failure("unknown workload id")
            generator, process = entry
            return WebResponse.success(
                {
                    "done": process.triggered,
                    "outcomes": len(generator.outcomes),
                    "committed": sum(
                        1 for o in generator.outcomes if o.status == "COMMITTED"
                    ),
                }
            )
        return WebResponse.failure(f"unknown WLGlet action {request.action!r}")


class PMlet(Servlet):
    """Progress-monitor access: merges global and per-site statistics."""

    name = "pmlet"

    def __init__(self, tier: "RainbowWebTier"):
        self.tier = tier

    def handle(self, request: WebRequest):
        self.tier.require_role(request.token)
        if request.action == "statistics":
            stats = asdict(self.tier.instance.monitor.output_statistics())
            return WebResponse.success(stats)
        if request.action == "site_statistics":
            # Work "closely with NSlet and Sitelet": fan out to every host.
            merged = {}
            for site, host in sorted(self.tier.site_hosts.items()):
                response = yield from self.runner.forward(
                    host, "sitelet", "site_stats", {"site": site}, request.token
                )
                merged[site] = response.data if response.ok else {"error": response.error}
            return WebResponse.success(merged)
        if request.action == "timeseries":
            return WebResponse.success(dict(self.tier.instance.monitor.series))
        return WebResponse.failure(f"unknown PMlet action {request.action!r}")


class RainbowWebTier:
    """The two-level servlet arrangement over one Rainbow instance."""

    def __init__(
        self,
        instance: RainbowInstance,
        home_host: str = "rainbow-home",
        users: Optional[dict[str, tuple[str, str]]] = None,
    ):
        self.instance = instance
        self.home_host = home_host
        self.ns_host = instance.nameserver.host
        self.users = dict(users or DEFAULT_USERS)
        self.sessions: dict[str, str] = {}  # token -> role
        self.site_hosts = {name: site.host for name, site in instance.sites.items()}

        hosts = {home_host, self.ns_host, *self.site_hosts.values()}
        self.runners: dict[str, ServletRunner] = {
            host: ServletRunner(instance.sim, instance.network, host)
            for host in sorted(hosts)
        }
        # Web servers are fault-injection targets too (the paper's warning
        # that the home host's ServletRunner must stay up is testable).
        for runner in self.runners.values():
            instance.injector.register(runner)

        home = self.runners[home_host]
        home.install(AuthServlet(self))
        home.install(NSRunnerlet(self))
        home.install(SiteRunnerlet(self))
        home.install(WLGlet(self))
        home.install(PMlet(self))
        self.runners[self.ns_host].install(NSlet(self))
        for host in sorted(set(self.site_hosts.values())):
            self.runners[host].install(Sitelet(self, host))

    @property
    def home_address(self) -> str:
        """The only address the GUI applet is allowed to contact."""
        return f"{self.home_host}/{RUNNER_NAME}"

    # -- authorization ------------------------------------------------------------
    def role_of(self, token: Optional[str]) -> Optional[str]:
        return self.sessions.get(token or "")

    def require_role(self, token: Optional[str], role: Optional[str] = None) -> str:
        """Validate the session token (and the required role, if any)."""
        actual = self.role_of(token)
        if actual is None:
            raise AuthorizationError("not logged in")
        if role is not None and actual != role:
            raise AuthorizationError(f"requires role {role!r}, session is {actual!r}")
        return actual

    # -- reporting -----------------------------------------------------------------
    def placement_table(self) -> list[tuple[str, list[str]]]:
        """(host, servlets) rows — the physical mapping of Figure 2."""
        return [
            (host, sorted(runner.servlets))
            for host, runner in sorted(self.runners.items())
        ]

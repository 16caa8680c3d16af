"""The home-site transaction coordinator.

"When a new transaction arrives at a Rainbow site, the site dedicates one
thread to process it.  The thread immediately invokes the RCP. … When all
operations of a transaction are processed by the RCP, the home site
initiates a two-phase commit session … When commitment terminates, the
transaction is complete and the thread finishes."

:func:`run_transaction` is that thread, as a kernel process running *on*
the home site (it dies with it).  :class:`TxnContext` is the toolbox it
hands to the pluggable RCP and ACP: copy access (local calls for the home
copy, request/reply messages for remote copies), participant registration,
version bookkeeping, and the vote/decision machinery of the commit
protocols.

Abort classification follows the paper's statistics: RCP (quorum or copy
set unattainable), CCP (rejected/deadlock victim), ACP (a NO vote or vote
timeout), SYSTEM (the home site crashed mid-flight).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import (
    CommitAbort,
    NetworkError,
    RpcTimeout,
    TransactionAborted,
)
from repro.nameserver.catalog import Catalog
from repro.net.message import MessageType
from repro.protocols.base import make_acp, make_rcp
from repro.sim.kernel import Interrupt
from repro.site.site import Site
from repro.txn.transaction import OpKind, Transaction, TxnStatus

__all__ = ["AccessResult", "Participant", "CoordinatorConfig", "TxnContext", "run_transaction"]


@dataclass
class AccessResult:
    """Outcome of one copy access (never raises — RCPs classify)."""

    ok: bool
    site: str
    value: Any = None
    version: float = 0.0
    kind: Optional[str] = None  # "ccp" | "net" when not ok
    reason: str = ""


@dataclass
class Participant:
    """A site the transaction touched; it must see the final decision."""

    site: str
    address: str
    versions: dict[str, float] = field(default_factory=dict)  # prewritten items


@dataclass
class CoordinatorConfig:
    """Coordinator-side protocol selection and timeout policy.

    ``op_timeout`` must exceed the sites' lock/TSO wait timeouts, otherwise
    a long (but legal) lock wait at a remote copy is misclassified as an
    unreachable site.
    """

    rcp: str = "QC"
    acp: str = "2PC"
    rcp_options: dict = field(default_factory=dict)
    acp_options: dict = field(default_factory=dict)
    op_timeout: float = 90.0
    vote_timeout: float = 40.0
    ack_timeout: float = 25.0
    ack_retries: int = 3
    # Message-economy optimizations (docs/PERF.md); all off by default so
    # the unoptimized message sequences replay byte-identically.
    batch_site_ops: bool = False
    piggyback_prepare: bool = False
    latency_aware_routing: bool = False
    # Deterministic failure scenarios ("crash the coordinator right after
    # the votes are in"): the classic classroom exercise about 2PC blocking
    # and the driver of the EXP-ACP benchmark.  ``failpoint`` is one of
    # ``"after_votes"`` or ``"after_precommit"``; each armed transaction
    # that reaches it crashes its home site at that instant.
    failpoint: Optional[str] = None
    failpoint_arms: int = 0

    def hit_failpoint(self, point: str) -> bool:
        """Consume one arm if ``point`` is the configured failpoint."""
        if self.failpoint == point and self.failpoint_arms > 0:
            self.failpoint_arms -= 1
            return True
        return False


class TxnContext:
    """Everything the RCP and ACP need while processing one transaction."""

    def __init__(
        self,
        txn: Transaction,
        home: Site,
        catalog: Catalog,
        directory: dict[str, str],
        config: CoordinatorConfig,
        monitor=None,
    ):
        self.txn = txn
        self.home = home
        self.sim = home.sim
        self.catalog = catalog
        self.directory = directory  # site name -> endpoint address
        self.config = config
        self.monitor = monitor
        self.participants: dict[str, Participant] = {}
        self.rcp = make_rcp(config.rcp, **config.rcp_options)
        self.acp = make_acp(config.acp, **config.acp_options)
        # Sites where copy accesses are currently outstanding (a counted
        # multiset: quorum accesses run concurrently).  The distributed-
        # deadlock detector forwards probes through ``blocked_site``.
        self._blocked_counts: dict[str, int] = {}
        # Piggybacked-prepare state: armed only while the final operation's
        # accesses are in flight; votes folded into access replies wait
        # here until collect_votes consumes them.
        self._piggyback_armed = False
        self._pending_votes: dict[str, tuple[bool, str]] = {}
        # Causal tracing: the instance's span tracer (None = tracing off),
        # the transaction's root span, and the innermost open span.  The
        # current span's id rides on every outgoing message so network and
        # site spans nest under the coordinator phase that caused them.
        self.tracer = getattr(home, "tracer", None)
        self.root_span = None
        self.current_span = None

    # -- causal tracing ----------------------------------------------------------
    def begin_span(self, name: str, **attrs):
        """Open a child span under the current one; None when tracing is off.

        Returns an opaque token for :meth:`end_span`.  Spans opened through
        this pair form a stack, so nested protocol layers (an RCP wave
        inside an op, a vote round inside the ACP) parent correctly.
        """
        if self.tracer is None:
            return None
        parent = self.current_span or self.root_span
        span = self.tracer.begin(
            self.txn.txn_id,
            self.home.name,
            name,
            parent=None if parent is None else parent.span_id,
            **attrs,
        )
        token = (span, self.current_span)
        self.current_span = span
        return token

    def end_span(self, token) -> None:
        """Close a span opened with :meth:`begin_span` (no-op for None)."""
        if token is None:
            return
        span, previous = token
        self.tracer.finish(span)
        self.current_span = previous

    def trace_context(self) -> Optional[str]:
        """Span id to stamp on outgoing messages (None when tracing is off)."""
        if self.tracer is None:
            return None
        active = self.current_span or self.root_span
        return None if active is None else active.span_id

    @property
    def blocked_site(self) -> Optional[str]:
        """A site where the transaction is currently waiting (or None)."""
        for site, count in self._blocked_counts.items():
            if count > 0:
                return site
        return None

    def _block_enter(self, site: str) -> None:
        self._blocked_counts[site] = self._blocked_counts.get(site, 0) + 1

    def _block_exit(self, site: str) -> None:
        count = self._blocked_counts.get(site, 0) - 1
        if count <= 0:
            self._blocked_counts.pop(site, None)
        else:
            self._blocked_counts[site] = count

    # -- topology helpers --------------------------------------------------------
    def order_local_first(self, sites: list[str]) -> list[str]:
        """Copy-holder order: the home copy is free, so it goes first.

        With ``latency_aware_routing`` the remaining holders are ranked by
        the latency model's expected delay from the home host (deterministic
        tie-break on name), so quorum waves and ROWA-A reads prefer LAN
        replicas over WAN ones under :class:`~repro.net.latency.LanWanLatency`.
        """
        if self.config.latency_aware_routing:
            ordered = sorted(
                (site for site in sites if site != self.home.name),
                key=self._latency_rank,
            )
            if self.home.name in sites:
                ordered.insert(0, self.home.name)
            return ordered
        ordered = sorted(sites)
        if self.home.name in ordered:
            ordered.remove(self.home.name)
            ordered.insert(0, self.home.name)
        return ordered

    def _latency_rank(self, site: str) -> tuple[float, str]:
        """Sort key for copy holders: (expected delay from home, name).

        Uses the model's deterministic expectation — never a random draw —
        so routing cannot perturb the network's latency stream.  Models
        without ``expected_delay`` fall back to alphabetical order.
        """
        expected = getattr(self.home.network.latency, "expected_delay", None)
        delay = 0.0
        if expected is not None:
            delay = expected(self.home.host, self.host_of(site))
        return (delay, site)

    def address_of(self, site: str) -> str:
        return self.directory[site]

    def host_of(self, site: str) -> str:
        """The host a site lives on (addresses are ``host/name``)."""
        return self.address_of(site).split("/", 1)[0]

    # -- copy access ---------------------------------------------------------------
    def access_read(self, site: str, item: str):
        """Read the copy of ``item`` at ``site`` (generator → AccessResult)."""
        return (yield from self._access(site, item, False, None))

    def access_prewrite(self, site: str, item: str, value: Any):
        """Pre-write ``item`` at ``site`` (generator → AccessResult)."""
        return (yield from self._access(site, item, True, value))

    def _access(self, site: str, item: str, write: bool, value: Any):
        """One copy access: a direct CCP call at home, a READ/PREWRITE elsewhere."""
        txn_id, ts = self.txn.txn_id, self.txn.ts
        if site == self.home.name:
            self._block_enter(site)
            span = self.trace_context()
            try:
                if write:
                    read_value = None
                    version = yield from self.home.local_prewrite(
                        txn_id, ts, item, value, span
                    )
                else:
                    read_value, version = yield from self.home.local_read(
                        txn_id, ts, item, span
                    )
            except TransactionAborted as abort:
                return AccessResult(False, site, kind="ccp", reason=str(abort))
            finally:
                self._block_exit(site)
            self._register(site)
            return AccessResult(True, site, value=read_value, version=version)
        request: dict[str, Any] = {"txn": txn_id, "ts": ts, "item": item}
        if write:
            request["value"] = value
        request["home"] = self.home.address
        prepare = self._piggyback_payload(site, item, write=write)
        if prepare is not None:
            request["prepare"] = prepare
        self._block_enter(site)
        try:
            reply = yield self.home.endpoint.request(
                self.address_of(site),
                MessageType.PREWRITE if write else MessageType.READ,
                request,
                timeout=self.config.op_timeout,
                txn_id=txn_id,
                span=self.trace_context(),
            )
        except (RpcTimeout, NetworkError) as failure:
            return AccessResult(False, site, kind="net", reason=str(failure))
        finally:
            self._block_exit(site)
        payload = reply.payload or {}
        if not payload.get("ok"):
            return AccessResult(False, site, kind="ccp", reason=payload.get("reason", ""))
        self._register(site)
        self._absorb_vote(site, payload)
        return AccessResult(
            True, site, value=payload.get("value"), version=payload.get("version", 0)
        )

    def access_read_many(self, sites: list[str], item: str):
        """Concurrent reads at several sites (generator → list[AccessResult])."""
        if self.config.batch_site_ops:
            return (yield from self._access_many(sites, item, write=False))
        return (yield from self._gather([self.access_read(site, item) for site in sites]))

    def access_prewrite_many(self, sites: list[str], item: str, value: Any):
        """Concurrent pre-writes at several sites (generator → results)."""
        if self.config.batch_site_ops:
            return (yield from self._access_many(sites, item, write=True, value=value))
        return (
            yield from self._gather(
                [self.access_prewrite(site, item, value) for site in sites]
            )
        )

    def _access_many(self, sites: list[str], item: str, write: bool, value: Any = None):
        """Batched access plan: one BATCH_ACCESS per multi-site host group.

        Remote sites sharing a host are coalesced into a single message to
        the group's gateway; the home copy and singleton hosts keep the
        plain per-site path (their message counts are already minimal).
        Results come back in the order of ``sites``.
        """
        groups: dict[str, list[str]] = {}
        plans = []
        for site in sites:
            if site == self.home.name:
                plans.append(
                    self.access_prewrite(site, item, value)
                    if write
                    else self.access_read(site, item)
                )
            else:
                groups.setdefault(self.host_of(site), []).append(site)
        for host in sorted(groups):
            members = groups[host]
            if len(members) == 1:
                plans.append(
                    self.access_prewrite(members[0], item, value)
                    if write
                    else self.access_read(members[0], item)
                )
            else:
                plans.append(self._batch_access(members, item, write, value))
        results = yield from self._gather(plans)
        by_site: dict[str, AccessResult] = {}
        for result in results:
            for access in result if isinstance(result, list) else (result,):
                by_site[access.site] = access
        return [by_site[site] for site in sites]

    def _batch_access(self, group: list[str], item: str, write: bool, value: Any):
        """One BATCH_ACCESS round trip covering all of ``group`` (same host).

        The first (name-ordered) member acts as the gateway and fans the
        sub-ops out to its co-located siblings; the reply carries one entry
        per site.  A lost batch is a net failure for every member — the same
        classification each unbatched RPC would have produced on timeout.
        """
        gateway = min(group)
        request: dict[str, Any] = {
            "txn": self.txn.txn_id,
            "ts": self.txn.ts,
            "item": item,
            "kind": "W" if write else "R",
            "sites": list(group),
            "home": self.home.address,
        }
        if write:
            request["value"] = value
        prepare = {}
        for site in group:
            attached = self._piggyback_payload(site, item, write=write)
            if attached is not None:
                prepare[site] = attached
        if prepare:
            request["prepare"] = prepare
        for site in group:
            self._block_enter(site)
        try:
            reply = yield self.home.endpoint.request(
                self.address_of(gateway),
                MessageType.BATCH_ACCESS,
                request,
                timeout=self.config.op_timeout,
                txn_id=self.txn.txn_id,
                size=len(group),
                span=self.trace_context(),
            )
        except (RpcTimeout, NetworkError) as failure:
            return [
                AccessResult(False, site, kind="net", reason=str(failure))
                for site in group
            ]
        finally:
            for site in group:
                self._block_exit(site)
        if self.monitor is not None:
            self.monitor.note_batched_ops(len(group), saved=len(group) - 1)
        entries = {
            entry.get("site"): entry
            for entry in (reply.payload or {}).get("results", [])
        }
        results = []
        for site in group:
            entry = entries.get(site)
            if entry is None:
                results.append(
                    AccessResult(False, site, kind="net", reason="no batch result")
                )
            elif entry.get("ok"):
                self._register(site)
                self._absorb_vote(site, entry)
                results.append(
                    AccessResult(
                        True,
                        site,
                        value=entry.get("value"),
                        version=entry.get("version", 0),
                    )
                )
            else:
                results.append(
                    AccessResult(
                        False,
                        site,
                        kind=entry.get("kind", "ccp"),
                        reason=entry.get("reason", ""),
                    )
                )
        return results

    def _gather(self, generators):
        processes = [self.sim.process(g, name="access") for g in generators]
        yield self.sim.all_of(processes)
        return [p.value for p in processes]

    # -- piggybacked prepare -----------------------------------------------------
    def arm_piggyback(self) -> None:
        """Arm prepare piggybacking for the transaction's final operation.

        Only 2PC benefits (3PC's extra PRECOMMIT round dominates either
        way), so other ACPs leave the flag unarmed and keep the explicit
        vote round.
        """
        self._piggyback_armed = (
            self.config.piggyback_prepare and self.config.acp.upper() == "2PC"
        )

    def _piggyback_payload(self, site: str, item: str, write: bool) -> Optional[dict]:
        """VOTE_REQ payload to ride on a final-operation access (or None).

        A write access can only carry a prepare when versions are
        timestamps (the installed version is known before the prewrite is
        sent); counter-version CCPs miss the window and fall back to the
        explicit vote round.  The home site always prepares via the direct
        local call in :meth:`collect_votes`.
        """
        if not self._piggyback_armed or site == self.home.name:
            return None
        if write and not getattr(self.home.cc, "timestamp_versions", False):
            return None
        participant = self.participants.get(site)
        versions = dict(participant.versions) if participant is not None else {}
        if write:
            versions[item] = self.txn.ts
        return {
            "versions": versions,
            "coordinator": self.home.address,
            "acp": self.config.acp,
            "peers": self.participant_addresses(),
        }

    def _absorb_vote(self, site: str, payload: dict) -> None:
        """Store a vote folded into an access reply for collect_votes."""
        if "vote" in payload:
            self._pending_votes[site] = (
                bool(payload["vote"]),
                payload.get("vote_reason", ""),
            )

    # -- bookkeeping -----------------------------------------------------------------
    def _register(self, site: str) -> None:
        if site not in self.participants:
            self.participants[site] = Participant(site=site, address=self.address_of(site))

    def assign_version(self, results) -> float:
        """The version a write will install, from its prewrite results.

        Counter semantics (2PL, TSO): one past the highest committed
        version seen in the written copy set.  Timestamp semantics (MVTO):
        the writer's own timestamp — the version chain is ordered by ts.
        """
        if getattr(self.home.cc, "timestamp_versions", False):
            return self.txn.ts
        return max(result.version for result in results) + 1

    def note_prewrite(self, site: str, item: str, new_version: float) -> None:
        """Record that ``site`` buffered ``item`` to be stamped ``new_version``."""
        self._register(site)
        self.participants[site].versions[item] = new_version

    def note_read(self, item: str, version: float) -> None:
        """Record the version the transaction observed for ``item``."""
        self.txn.read_versions[item] = version

    def note_write(self, item: str, version: float) -> None:
        """Record the version this transaction will install for ``item``."""
        self.txn.write_versions[item] = version

    def participant_addresses(self) -> list[str]:
        return [p.address for p in self.participants.values()]

    # -- ACP primitives -----------------------------------------------------------------
    def collect_votes(self, acp_name: str):
        """Phase 1: VOTE_REQ to every participant; returns (all_yes, detail).

        The home participant votes via a direct call; remote participants
        via messages.  A vote that does not arrive within ``vote_timeout``
        counts as NO (the classic timeout action).
        """
        span = self.begin_span("acp.vote", acp=acp_name)
        try:
            peers = self.participant_addresses()
            remote = []
            all_yes = True
            detail = []
            for participant in sorted(self.participants.values(), key=lambda p: p.site):
                if participant.site == self.home.name:
                    vote, reason = self.home.local_prepare(
                        self.txn.txn_id,
                        participant.versions,
                        self.home.address,
                        self.txn.ts,
                        acp=acp_name,
                        peers=peers,
                        span=self.trace_context(),
                    )
                    if not vote:
                        all_yes = False
                        detail.append(f"{participant.site}: {reason}")
                elif participant.site in self._pending_votes:
                    # The vote rode back on the final access reply (piggybacked
                    # prepare): the whole VOTE_REQ round trip is saved for this
                    # participant.
                    vote, reason = self._pending_votes[participant.site]
                    if self.monitor is not None:
                        self.monitor.note_round_trips_saved(1)
                    if not vote:
                        all_yes = False
                        detail.append(f"{participant.site}: {reason or 'NO'}")
                else:
                    remote.append(participant)

            if remote:
                events = [
                    self.home.endpoint.request(
                        participant.address,
                        MessageType.VOTE_REQ,
                        {
                            "txn": self.txn.txn_id,
                            "ts": self.txn.ts,
                            "versions": participant.versions,
                            "coordinator": self.home.address,
                            "acp": acp_name,
                            "peers": peers,
                        },
                        timeout=self.config.vote_timeout,
                        txn_id=self.txn.txn_id,
                        span=self.trace_context(),
                    )
                    for participant in remote
                ]
                results = yield self.sim.all_settled(events)
                for participant, event, result in zip(remote, events, results):
                    if not event.ok:
                        if not isinstance(result, (RpcTimeout, NetworkError)):
                            raise result
                        all_yes = False
                        detail.append(f"{participant.site}: no vote ({result})")
                        continue
                    payload = result.payload or {}
                    if not payload.get("vote"):
                        all_yes = False
                        detail.append(f"{participant.site}: {payload.get('reason', 'NO')}")
            if all_yes and self.config.hit_failpoint("after_votes"):
                # Crash before the decision is logged: participants that voted
                # YES are left uncertain and the decision is *presumed abort*
                # once the coordinator recovers.
                self.home.crash()
                raise Interrupt("failpoint: after_votes")
            return all_yes, "; ".join(detail)
        finally:
            self.end_span(span)

    def broadcast(self, mtype: str, *, retries: Optional[int] = None):
        """Send a decision/phase message to every participant, with retries.

        The home participant is handled by direct local calls.  Remote
        participants that never acknowledge are abandoned — they hold the
        prepared state and will resolve it through DECISION_REQ.
        Returns the number of participants that acknowledged.
        """
        name = "acp.precommit" if mtype == MessageType.PRECOMMIT else "acp.decision"
        span = self.begin_span(name, decision=mtype)
        try:
            attempts = self.config.ack_retries if retries is None else retries
            acked = 0
            remote = []
            for participant in sorted(self.participants.values(), key=lambda p: p.site):
                if participant.site == self.home.name:
                    self._local_decision(mtype)
                    acked += 1
                else:
                    remote.append(participant)

            results = yield from self._gather(
                self._broadcast_one(participant, mtype, attempts) for participant in remote
            )
            acked += sum(1 for ok in results if ok)
            if mtype == MessageType.PRECOMMIT and self.config.hit_failpoint("after_precommit"):
                # Crash between PRECOMMIT and COMMIT: under 3PC the termination
                # protocol lets the precommitted participants commit without us.
                self.home.crash()
                raise Interrupt("failpoint: after_precommit")
            return acked
        finally:
            self.end_span(span)

    def _local_decision(self, mtype: str) -> None:
        if mtype == MessageType.COMMIT:
            self.home.local_commit(self.txn.txn_id)
        elif mtype == MessageType.ABORT:
            self.home.local_abort(self.txn.txn_id)
        elif mtype == MessageType.PRECOMMIT:
            self.home.local_precommit(self.txn.txn_id)

    def _broadcast_one(self, participant: Participant, mtype: str, attempts: int):
        for _attempt in range(max(1, attempts)):
            try:
                yield self.home.endpoint.request(
                    participant.address,
                    mtype,
                    {"txn": self.txn.txn_id},
                    timeout=self.config.ack_timeout,
                    txn_id=self.txn.txn_id,
                    span=self.trace_context(),
                )
                return True
            except (RpcTimeout, NetworkError):
                continue
        return False

    def log_decision(self, decision: str) -> None:
        """Force the coordinator's decision record at the home site."""
        if decision == "COMMIT":
            self.home.wal.log_commit(self.txn.txn_id, self.sim.now)
        else:
            self.home.wal.log_abort(self.txn.txn_id, self.sim.now)
        self.txn.decided_at = self.sim.now

    def log_end_if_complete(self, acked: int) -> None:
        """Force END once every participant acknowledged the decision.

        With the full ack round collected, no participant can ever be in
        doubt about this transaction again, so the coordinator's COMMIT
        record may be dropped by future checkpoints (presumed abort's END
        record).  An incomplete round leaves the record pinned until the
        silent participants resolve through DECISION_REQ.
        """
        if acked == len(self.participants):
            self.home.wal.log_end(self.txn.txn_id, self.sim.now)


_OP_SPAN_NAMES = {
    OpKind.READ: "rcp.read",
    OpKind.WRITE: "rcp.write",
    OpKind.INCREMENT: "rcp.increment",
}


def run_transaction(ctx: TxnContext):
    """Process one transaction end to end (RCP loop, then ACP).

    Returns the transaction's final status string; all bookkeeping happens
    on ``ctx.txn`` and through the monitor.
    """
    txn = ctx.txn
    sim = ctx.sim
    txn.started_at = sim.now
    # Unique, arrival-ordered timestamps (TO protocols need uniqueness).
    txn.ts = sim.now + (txn.txn_id % 1_000_000) * 1e-9
    txn.status = TxnStatus.RUNNING
    if ctx.monitor is not None:
        ctx.monitor.txn_started(txn)
    if ctx.tracer is not None:
        # Root span covers [submission, decision] — exactly the monitor's
        # response time — so a txn's phase breakdown sums to it.  The time
        # between submission and this process starting (WLG dispatch, the
        # TXN_SUBMIT flight) is recorded as a complete "dispatch" child.
        ctx.root_span = ctx.tracer.begin(
            txn.txn_id,
            ctx.home.name,
            "txn",
            start=txn.submitted_at,
            attempt=txn.attempt,
        )
        if sim.now > txn.submitted_at:
            ctx.tracer.record(
                txn.txn_id,
                ctx.home.name,
                "dispatch",
                start=txn.submitted_at,
                end=sim.now,
                parent=ctx.root_span.span_id,
            )

    try:
        final = len(txn.ops) - 1
        for index, op in enumerate(txn.ops):
            op_span = ctx.begin_span(_OP_SPAN_NAMES[op.kind], item=op.item)
            try:
                if op.kind == OpKind.READ:
                    if index == final:
                        ctx.arm_piggyback()
                    txn.reads[op.item] = yield from ctx.rcp.do_read(ctx, op.item)
                elif op.kind == OpKind.INCREMENT:
                    # Arm only around the write half: preparing a participant
                    # during the read half would freeze its workspace before
                    # the increment's prewrite lands.
                    current = yield from ctx.rcp.do_read(ctx, op.item)
                    txn.reads[op.item] = current
                    if index == final:
                        ctx.arm_piggyback()
                    yield from ctx.rcp.do_write(ctx, op.item, current + op.value)
                else:
                    if index == final:
                        ctx.arm_piggyback()
                    yield from ctx.rcp.do_write(ctx, op.item, op.value)
            finally:
                ctx.end_span(op_span)
        yield from ctx.acp.run(ctx)
        txn.status = TxnStatus.COMMITTED
    except CommitAbort as abort:
        # The ACP has already propagated the abort to the participants.
        _mark_aborted(txn, abort, sim.now)
    except TransactionAborted as abort:
        _mark_aborted(txn, abort, sim.now)
        try:
            yield from ctx.broadcast(MessageType.ABORT, retries=1)
        except Interrupt:
            pass  # the home site crashed while cleaning up
    except Interrupt:
        # The paper's orphan statistic: the coordinator died before a
        # decision was logged, stranding prepared participants in doubt.
        txn.orphaned = txn.decided_at is None
        _mark_aborted(txn, None, sim.now, cause="SYSTEM", detail="home site crashed")
    finally:
        txn.finished_at = sim.now
        if txn.decided_at is None:
            txn.decided_at = sim.now
        if ctx.tracer is not None and ctx.root_span is not None:
            ctx.tracer.finish(ctx.root_span, end=txn.decided_at)
        if ctx.monitor is not None:
            ctx.monitor.txn_finished(txn, ctx)
    return txn.status


def _mark_aborted(txn, abort, now, cause=None, detail=None):
    txn.status = TxnStatus.ABORTED
    txn.abort_cause = cause if cause is not None else abort.cause
    txn.abort_detail = detail if detail is not None else abort.detail or str(abort)
    if txn.decided_at is None:
        txn.decided_at = now

"""The Rainbow site: storage, concurrency control, and protocol participants.

"The Rainbow core is comprised of the name server and a number of Rainbow
sites … Each site can freely communicate with each other.  Any site has the
capability to concurrently process multiple transactions."

A :class:`Site` owns:

* a network endpoint whose requests are dispatched through a
  ``{message type: handler}`` table at the delivery instant.  Handlers that
  never wait (votes, decisions, submissions) run inline; a copy access also
  starts inline, and if it waits in the concurrency controller it goes on
  as its own process (the paper's "one thread per transaction" model —
  here one process per waiting access plus one per home transaction);
* the committed :class:`~repro.site.storage.LocalStore` and durable
  :class:`~repro.site.wal.WriteAheadLog` (the simulated disk);
* a pluggable concurrency controller (2PL / TSO / MVTO) guarding the local
  copies;
* the *participant* halves of 2PC and 3PC, including uncertainty timeouts,
  decision requests with presumed abort, recovery of in-doubt transactions
  from the WAL, and the simplified 3PC termination protocol;
* a garbage sweeper that unilaterally aborts unprepared transactions whose
  coordinator has stopped driving them (their home site crashed);
* its ``observers``: the one place a site reports what it did.  Each
  ``local_*`` operation calls them once it has taken effect (the execution
  tracer is one); the span tracer gets each local CCP span's parent as the
  operation's ``span`` argument.

Everything above the dashed line in the paper's Figure 1 — the web tier and
GUI — talks to sites only through messages; the coordinator for a *home*
transaction runs as a process on its site and uses the ``local_*`` methods
directly (no self-messages, so message counts match the real system).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ConcurrencyAbort, NetworkError, RpcTimeout
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.protocols.base import make_ccp
from repro.site.deadlock import DeadlockDetector
from repro.site.storage import LocalStore
from repro.site.wal import WriteAheadLog
from repro.sim.kernel import Process, Simulator

__all__ = ["Site", "SiteStats", "PreparedState"]


@dataclass
class PreparedState:
    """Volatile record of a transaction this site has voted YES on."""

    txn_id: int
    ts: float
    versions: dict[str, int]
    coordinator: Optional[str]
    acp: str = "2PC"
    peers: list[str] = field(default_factory=list)
    prepared_at: float = 0.0
    precommitted: bool = False
    resolving: bool = False


@dataclass
class SiteStats:
    """Per-site counters sampled by the progress monitor."""

    messages_handled: int = 0
    reads_served: int = 0
    prewrites_served: int = 0
    votes_yes: int = 0
    votes_no: int = 0
    commits_applied: int = 0
    aborts_applied: int = 0
    orphan_events: int = 0
    orphans_resolved: int = 0
    gc_aborts: int = 0
    crashes: int = 0
    recoveries: int = 0
    home_txns_started: int = 0


class Site:
    """One Rainbow site."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        host: str,
        *,
        ccp: str = "2PL",
        ccp_options: Optional[dict] = None,
        uncertainty_timeout: Optional[float] = 80.0,
        decision_retry: float = 25.0,
        gc_interval: float = 60.0,
        gc_timeout: float = 150.0,
        sweep_interval: float = 20.0,
        distributed_deadlock: bool = False,
        probe_interval: float = 20.0,
        checkpoint_interval: Optional[float] = None,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.host = host
        self.endpoint = network.endpoint(host, name, handler=self._on_message)
        self.store = LocalStore(name)
        self.wal = WriteAheadLog(name)
        self.ccp_name = ccp.upper()
        self._ccp_options = dict(ccp_options or {})
        self.cc = make_ccp(self.ccp_name, sim, self.store, **self._ccp_options)
        self.stats = SiteStats()
        self.up = True

        self.uncertainty_timeout = uncertainty_timeout
        self.decision_retry = decision_retry
        self.gc_interval = gc_interval
        self.gc_timeout = gc_timeout
        self.sweep_interval = sweep_interval
        self.checkpoint_interval = checkpoint_interval
        self.checkpoints_taken = 0

        # Set by the Rainbow instance: called to run a home transaction when
        # one arrives via TXN_SUBMIT (the WLGlet dispatch path).
        self.coordinator_factory: Optional[Callable[["Site", Any], Any]] = None

        self._prepared: dict[int, PreparedState] = {}
        self._activity: dict[int, float] = {}
        self._processes: set[Process] = set()
        # Same-host sibling sites (the paper's shared Sitelet): the instance
        # wires this map so one BATCH_ACCESS can fan out to co-located
        # copies without extra network hops.
        self.colocated: dict[str, "Site"] = {}
        # Transaction ids already accepted via TXN_SUBMIT: duplicated
        # deliveries (flaky links, duplication_rate) must not start the
        # same transaction twice.
        self._seen_submissions: set[int] = set()
        # Distributed-deadlock support: where each known transaction's home
        # is, and the contexts of transactions homed here.
        self._txn_home: dict[int, str] = {}
        self._home_ctxs: dict[int, object] = {}
        self.directory: dict[str, str] = {}
        # Observers of the local operations (``ExecutionTracer.record``):
        # each is called as ``observer(kind, site_name, txn, item, value,
        # version)`` once a read, pre-write, YES vote, pre-commit, commit or
        # abort has taken effect.  They outlive crashes, like the site's name.
        self.observers: list[Callable[..., None]] = []
        # Causal tracing (``RainbowInstance.enable_tracing``): the shared
        # span tracer.  Local CCP operations take the span they nest under
        # as their ``span`` argument.
        self.tracer = None
        # Request dispatch.
        self._handler_of: dict[str, Callable[[Message], None]] = {
            MessageType.READ: self._on_access,
            MessageType.PREWRITE: self._on_access,
            MessageType.BATCH_ACCESS: self._on_access,
            MessageType.VOTE_REQ: self._on_vote_req,
            MessageType.PRECOMMIT: self._on_precommit,
            MessageType.COMMIT: self._on_commit,
            MessageType.ABORT: self._on_abort,
            MessageType.DECISION_REQ: self._on_decision_req,
            MessageType.TXN_SUBMIT: self._on_txn_submit,
        }
        self._start_background()
        self.deadlock_detector = None
        if distributed_deadlock:
            self.deadlock_detector = DeadlockDetector(
                self, probe_interval=probe_interval
            )
            self._handler_of.update(self.deadlock_detector.handlers)
            self._wire_detector()

    @property
    def address(self) -> str:
        """Network address of this site's endpoint."""
        return self.endpoint.address

    def in_doubt_count(self) -> int:
        """Transactions currently prepared with no known decision (orphans)."""
        return len(self._prepared)

    # -------------------------------------------------------- deadlock support
    def _wire_detector(self) -> None:
        locks = getattr(self.cc, "locks", None)
        if locks is not None and self.deadlock_detector is not None:
            locks.on_block = self.deadlock_detector.on_block

    def register_home_txn(self, txn_id: int, ctx) -> None:
        """Track a home transaction's context (probe forwarding needs it)."""
        self._home_ctxs[txn_id] = ctx
        self._txn_home[txn_id] = self.address

    def unregister_home_txn(self, txn_id: int) -> None:
        self._home_ctxs.pop(txn_id, None)

    def directory_address(self, site_name: str) -> Optional[str]:
        """Resolve a site name to its endpoint address (None if unknown)."""
        if site_name == self.name:
            return self.address
        return self.directory.get(site_name)

    # ------------------------------------------------------------------ lifecycle
    def _start_background(self) -> None:
        if self.gc_interval:
            self._spawn(self._gc_loop(), name=f"site:{self.name}:gc")
        if self.uncertainty_timeout is not None:
            self._spawn(self._uncertainty_loop(), name=f"site:{self.name}:uncertain")
        if self.checkpoint_interval:
            self._spawn(self._checkpoint_loop(), name=f"site:{self.name}:ckpt")

    def _spawn(self, generator, name: str) -> Process:
        return self._track(self.sim.process(generator, name=name))

    def _track(self, process: Process) -> Process:
        """Make a running process die with the site (interrupted on crash)."""
        self._processes.add(process)
        process.add_callback(lambda _ev: self._processes.discard(process))
        return process

    def spawn_home_transaction(self, generator, name: str) -> Process:
        """Run a home-transaction coordinator as a process of this site.

        The process dies with the site (it is interrupted on crash), exactly
        like the dedicated Java thread in the original system.
        """
        self.stats.home_txns_started += 1
        return self._spawn(generator, name=name)

    def crash(self) -> None:
        """Fail-stop: lose all volatile state; keep the store and the WAL."""
        if not self.up:
            return
        self.up = False
        self.stats.crashes += 1
        self.endpoint.set_down()
        for process in list(self._processes):
            process.interrupt("site crash")
        self._processes.clear()
        self.cc.clear()
        self._prepared.clear()
        self._activity.clear()
        self._home_ctxs.clear()
        self._txn_home.clear()

    def recover(self) -> None:
        """Restart from durable state; resolve in-doubt transactions."""
        if self.up:
            return
        self.up = True
        self.stats.recoveries += 1
        self.endpoint.set_up()
        self.cc = make_ccp(self.ccp_name, self.sim, self.store, **self._ccp_options)

        checkpoint = self.wal.last_checkpoint()
        if checkpoint is not None:
            # Restore the checkpointed image first (idempotent: the store's
            # version check ignores anything it already has).
            for item, (value, version) in checkpoint.writes.items():
                if self.store.has_copy(item):
                    self.store.apply(item, value, version, 0, self.sim.now)
        in_doubt, committed = self.wal.recover_state()
        for record in committed:
            # Idempotent replay: the store ignores stale versions.
            for item, (value, version) in record.writes.items():
                if self.store.has_copy(item):
                    self.store.apply(item, value, version, record.txn_id, self.sim.now)
        for doubt in in_doubt:
            writes = {item: value for item, (value, _version) in doubt.writes.items()}
            versions = {item: version for item, (_value, version) in doubt.writes.items()}
            self.cc.reinstate(doubt.txn_id, doubt.ts, writes)
            state = PreparedState(
                txn_id=doubt.txn_id,
                ts=doubt.ts,
                versions=versions,
                coordinator=doubt.coordinator,
                acp=doubt.acp,
                peers=list(doubt.peers),
                prepared_at=self.sim.now,
                precommitted=doubt.precommitted,
            )
            self._prepared[doubt.txn_id] = state
            self._begin_resolution(state)

        self._start_background()
        if self.deadlock_detector is not None:
            self._wire_detector()
            self._spawn(
                self.deadlock_detector._reprobe_loop(), name=f"ddd:{self.name}"
            )

    # ------------------------------------------------------------------ requests
    def _on_message(self, msg: Message) -> None:
        """Endpoint handler: dispatch one delivered request by its type."""
        self.stats.messages_handled += 1
        handler = self._handler_of.get(msg.mtype)
        if handler is None:
            self.endpoint.reply(msg, MessageType.ACK, {"ok": False, "reason": "bad type"})
        else:
            handler(msg)

    def _on_access(self, msg: Message) -> None:
        # Run the access now, up to its first wait (Simulator.start: this is
        # the last thing the delivery does).  One that waits, in the CCP or
        # for its batch, stays a process of this site, so a crash interrupts
        # it.  Nothing waits on an access, so it may complete in place.
        process = self.sim.start(self._serve_access(msg), name=f"site:{self.name}:{msg.mtype}")
        if process.is_alive:
            self._track(process)

    def _serve_access(self, msg: Message):
        """Serve one copy-access request (generator).

        A READ or PREWRITE is an access of one at this site; a BATCH_ACCESS
        fans out over the host.
        """
        payload = msg.payload
        if msg.mtype == MessageType.BATCH_ACCESS:
            yield from self._serve_batch(msg, payload)
            return
        write = msg.mtype == MessageType.PREWRITE
        entry = yield from self._access(
            self.name, payload, write, payload.get("prepare"), msg.span
        )
        self.endpoint.reply(
            msg, MessageType.PREWRITE_REPLY if write else MessageType.READ_REPLY, entry
        )

    def _serve_batch(self, msg: Message, payload: dict):
        """Gateway for one BATCH_ACCESS: fan accesses out over the host.

        Each access targets this site or a co-located sibling and runs as
        its own process (a lock wait at one sibling must not serialize the
        others); the single reply carries one entry per requested site.
        The fan-out is the gateway's first step, so it is always the last
        thing its event does, as :meth:`Simulator.fan_out` requires.
        """
        sites = payload.get("sites") or []
        prepares = payload.get("prepare") or {}
        write = payload.get("kind") == "W"
        procs = self.sim.fan_out(
            (
                self._access(target, payload, write, prepares.get(target), msg.span),
                f"site:{self.name}:batch:{target}",
            )
            for target in sites
        )
        for process in procs:
            self._track(process)
        if procs:
            yield self.sim.all_of(procs)
        results = [
            {"site": target, **process.value} for target, process in zip(sites, procs)
        ]
        self.endpoint.reply(
            msg,
            MessageType.BATCH_REPLY,
            {"results": results},
            size=max(1, len(results)),
        )

    def _access(
        self,
        target_name: str,
        payload: dict,
        write: bool,
        prepare: Optional[dict],
        span: Optional[str],
    ):
        """One copy access at this site or a same-host sibling (generator).

        Returns the reply entry: ``ok`` plus the read value and version or
        the pre-write's version (and a folded vote if ``prepare`` rode
        along), or ``ok=False`` with the failure ``kind`` and ``reason``.
        """
        txn, ts, item = payload["txn"], payload["ts"], payload["item"]
        target = self if target_name == self.name else self.colocated.get(target_name)
        if target is None or not target.up:
            return {
                "ok": False,
                "kind": "net",
                "reason": f"{target_name} unavailable at gateway {self.name}",
            }
        home = payload.get("home")
        if home is not None:
            target._txn_home[txn] = home
        try:
            if write:
                version = yield from target.local_prewrite(
                    txn, ts, item, payload["value"], span
                )
                entry = {"ok": True, "version": version}
            else:
                value, version = yield from target.local_read(txn, ts, item, span)
                entry = {"ok": True, "value": value, "version": version}
        except ConcurrencyAbort as abort:
            return {"ok": False, "kind": "ccp", "reason": str(abort)}
        target._fold_prepare(txn, ts, prepare, entry, span)
        return entry

    def _fold_prepare(
        self,
        txn: int,
        ts: float,
        prepare: Optional[dict],
        reply: dict,
        span: Optional[str],
    ) -> None:
        """Run a piggybacked prepare and fold the vote into ``reply``.

        The last-agent optimization: the coordinator attached the VOTE_REQ
        payload to the transaction's final access, so the access reply
        doubles as this participant's vote and the explicit round is
        skipped.  Only reached after a successful access — a failed access
        aborts the transaction before any vote matters.
        """
        if prepare is None:
            return
        vote, reason = self.local_prepare(
            txn,
            prepare.get("versions", {}),
            prepare.get("coordinator"),
            ts,
            acp=prepare.get("acp", "2PC"),
            peers=prepare.get("peers", []),
            span=span,
        )
        reply["vote"] = vote
        reply["vote_reason"] = reason

    def _on_vote_req(self, msg: Message) -> None:
        payload = msg.payload
        vote, reason = self.local_prepare(
            payload["txn"],
            payload.get("versions", {}),
            payload.get("coordinator"),
            payload.get("ts", 0.0),
            acp=payload.get("acp", "2PC"),
            peers=payload.get("peers", []),
            span=msg.span,
        )
        self.endpoint.reply(msg, MessageType.VOTE, {"vote": vote, "reason": reason})

    def _on_precommit(self, msg: Message) -> None:
        self.local_precommit(msg.payload["txn"])
        self.endpoint.reply(msg, MessageType.PRECOMMIT_ACK, {"ok": True})

    def _on_commit(self, msg: Message) -> None:
        self.local_commit(msg.payload["txn"])
        self.endpoint.reply(msg, MessageType.ACK, {"ok": True})

    def _on_abort(self, msg: Message) -> None:
        self.local_abort(msg.payload["txn"])
        self.endpoint.reply(msg, MessageType.ACK, {"ok": True})

    def _on_decision_req(self, msg: Message) -> None:
        payload = msg.payload
        decision = self.decision_of(
            payload["txn"], presume_abort=payload.get("presume_abort", False)
        )
        self.endpoint.reply(msg, MessageType.DECISION, {"decision": decision})

    def _on_txn_submit(self, msg: Message) -> None:
        payload = msg.payload
        if self.coordinator_factory is None:
            self.endpoint.reply(
                msg, MessageType.TXN_RESULT, {"ok": False, "reason": "no coordinator"}
            )
            return
        # An unreliable link can deliver the same submission twice; running
        # the transaction again would double-apply its effects.  The first
        # delivery wins and its eventual TXN_RESULT answers the client.
        txn_id = payload["txn_spec"].txn_id
        if txn_id in self._seen_submissions:
            return
        self._seen_submissions.add(txn_id)

        def _run_and_report():
            outcome = yield from self.coordinator_factory(self, payload["txn_spec"])
            if self.up:
                # Result size tracks the data returned (one unit per read
                # value), so byte-weighted latency models see real payloads.
                n_values = len(outcome.get("reads", {})) if isinstance(outcome, dict) else 0
                self.endpoint.reply(
                    msg,
                    MessageType.TXN_RESULT,
                    {"ok": True, "outcome": outcome},
                    size=max(1, n_values),
                )

        self.spawn_home_transaction(_run_and_report(), name=f"txn@{self.name}")

    # ------------------------------------------------------------------ local ops
    def local_read(self, txn: int, ts: float, item: str, span: Optional[str] = None):
        """CCP-mediated read of the local copy (generator).

        ``span`` is the id of the span the ``ccp.read`` span nests under.
        """
        self._touch(txn)
        self.stats.reads_served += 1
        own = None if self.tracer is None else self.tracer.begin(
            txn, self.name, "ccp.read", parent=span, item=item
        )
        try:
            result = yield from self.cc.read(txn, ts, item)
        finally:
            if own is not None:
                self.tracer.finish(own)
        for observer in self.observers:
            observer("read", self.name, txn, item, *result)
        return result

    def local_prewrite(
        self, txn: int, ts: float, item: str, value: Any, span: Optional[str] = None
    ):
        """CCP-mediated pre-write of the local copy (generator).

        ``span`` is the id of the span the ``ccp.prewrite`` span nests under.
        """
        self._touch(txn)
        self.stats.prewrites_served += 1
        own = None if self.tracer is None else self.tracer.begin(
            txn, self.name, "ccp.prewrite", parent=span, item=item
        )
        try:
            version = yield from self.cc.prewrite(txn, ts, item, value)
        finally:
            if own is not None:
                self.tracer.finish(own)
        for observer in self.observers:
            observer("prewrite", self.name, txn, item, value, version)
        return version

    def local_prepare(
        self,
        txn: int,
        versions: dict[str, int],
        coordinator: Optional[str],
        ts: float,
        acp: str = "2PC",
        peers: Optional[list[str]] = None,
        span: Optional[str] = None,
    ) -> tuple[bool, str]:
        """Participant prepare: force the PREPARE record and vote.

        Returns ``(vote, reason)``.  A NO vote locally aborts right away
        (the coordinator will abort globally anyway).  ``span`` is the id of
        the span the ``ccp.prepare`` span nests under.
        """
        vote, reason = self._prepare_vote(txn, versions, coordinator, ts, acp, peers)
        if self.tracer is not None:
            now = self.sim.now
            self.tracer.record(
                txn,
                self.name,
                "ccp.prepare",
                start=now,
                end=now,
                parent=span,
                vote=vote,
            )
        if vote:
            for observer in self.observers:
                observer("prepare", self.name, txn, None, None, None)
        return vote, reason

    def _prepare_vote(
        self,
        txn: int,
        versions: dict[str, int],
        coordinator: Optional[str],
        ts: float,
        acp: str,
        peers: Optional[list[str]],
    ) -> tuple[bool, str]:
        self._touch(txn)
        if self.cc.is_doomed(txn):
            self.cc.abort(txn)
            self.stats.votes_no += 1
            return False, "doomed (wounded or recovery abort)"
        buffered = self.cc.buffered_writes(txn)
        missing = [item for item in versions if item not in buffered]
        if missing:
            self.stats.votes_no += 1
            return False, f"workspace lost for {missing}"
        valid, validation_reason = self.cc.validate(txn)
        if not valid:
            self.cc.abort(txn)
            self.stats.votes_no += 1
            return False, f"validation failed: {validation_reason}"
        writes = {item: (buffered[item], versions[item]) for item in versions}
        self.wal.log_prepare(
            txn, writes, coordinator, self.sim.now, ts=ts, acp=acp, peers=list(peers or [])
        )
        self._prepared[txn] = PreparedState(
            txn_id=txn,
            ts=ts,
            versions=dict(versions),
            coordinator=coordinator,
            acp=acp,
            peers=list(peers or []),
            prepared_at=self.sim.now,
        )
        self.stats.votes_yes += 1
        return True, "yes"

    def local_precommit(self, txn: int) -> None:
        """3PC pre-commit: durable, moves the participant out of uncertainty."""
        state = self._prepared.get(txn)
        if state is not None:
            self.wal.log_precommit(txn, self.sim.now)
            state.precommitted = True
        for observer in self.observers:
            observer("precommit", self.name, txn, None, None, None)

    def local_commit(self, txn: int) -> None:
        """Apply the global COMMIT decision at this participant."""
        state = self._prepared.pop(txn, None)
        # A retried decision finds nothing prepared and COMMIT logged: it was
        # applied already, and is only reported again.
        if state is not None or self.wal.decision_for(txn) != "COMMIT":
            if state is not None:
                # Tag the record as a participant's copy of the decision so
                # checkpointing knows how long it must survive (see
                # WriteAheadLog.checkpoint).
                self.wal.log_commit(
                    txn, self.sim.now, coordinator=state.coordinator, acp=state.acp
                )
            else:
                self.wal.log_commit(txn, self.sim.now)
            versions = state.versions if state is not None else {}
            self.cc.commit(txn, versions)
            self._activity.pop(txn, None)
            self.stats.commits_applied += 1
            if state is not None and state.resolving:
                self.stats.orphans_resolved += 1
        for observer in self.observers:
            observer("commit", self.name, txn, None, None, None)

    def local_abort(self, txn: int) -> None:
        """Apply the global ABORT decision (idempotent, presumed abort)."""
        state = self._prepared.pop(txn, None)
        if state is not None:
            self.wal.log_abort(txn, self.sim.now)
        self.cc.abort(txn)
        self._activity.pop(txn, None)
        self.stats.aborts_applied += 1
        if state is not None and state.resolving:
            self.stats.orphans_resolved += 1
        for observer in self.observers:
            observer("abort", self.name, txn, None, None, None)

    def decision_of(self, txn: int, presume_abort: bool = False) -> str:
        """Answer a DECISION_REQ about ``txn`` from durable + volatile state.

        ``presume_abort`` queries are directed at the transaction's
        *coordinator*: no logged decision means the coordinator never
        decided, so the answer is ABORT — even if this site also happens to
        hold an (equally undecided) participant state for the transaction.
        A PRECOMMIT record still wins: under 3PC it certifies that every
        participant voted YES.
        """
        decision = self.wal.decision_for(txn)
        if decision is not None:
            return decision
        state = self._prepared.get(txn)
        if state is not None and state.precommitted:
            return "PRECOMMITTED"
        if presume_abort:
            return "ABORT"
        if state is not None:
            return "UNCERTAIN"
        return "UNKNOWN"

    # ------------------------------------------------------------------ sweepers
    def _gc_loop(self):
        """Abort unprepared transactions abandoned by a dead coordinator."""
        while self.up:
            yield self.sim.timeout(self.gc_interval)
            if not self.up:
                return
            horizon = self.sim.now - self.gc_timeout
            for txn in sorted(self.cc.active_transactions()):
                if txn in self._prepared:
                    continue  # prepared: must wait for the decision
                if self._activity.get(txn, self.sim.now) < horizon:
                    self.cc.abort(txn)
                    self._activity.pop(txn, None)
                    self.stats.gc_aborts += 1

    def _checkpoint_loop(self):
        """Periodically checkpoint the store and truncate the WAL."""
        while self.up:
            yield self.sim.timeout(self.checkpoint_interval)
            if not self.up:
                return
            self.take_checkpoint()

    def take_checkpoint(self) -> int:
        """Checkpoint now; returns the number of log records truncated."""
        truncated = self.wal.checkpoint(self.store.snapshot(), self.sim.now)
        self.checkpoints_taken += 1
        return truncated

    def _uncertainty_loop(self):
        """Start decision resolution for participants stuck in doubt."""
        while self.up:
            yield self.sim.timeout(self.sweep_interval)
            if not self.up:
                return
            horizon = self.sim.now - (self.uncertainty_timeout or 0.0)
            for state in list(self._prepared.values()):
                if not state.resolving and state.prepared_at < horizon:
                    self._begin_resolution(state)

    def _begin_resolution(self, state: PreparedState) -> None:
        state.resolving = True
        self.stats.orphan_events += 1
        self._spawn(self._resolve(state), name=f"site:{self.name}:resolve:{state.txn_id}")

    def _resolve(self, state: PreparedState):
        """Learn the decision for an in-doubt transaction.

        2PC: poll the coordinator (presumed abort) until it answers — the
        blocking window of 2PC is exactly the time spent in this loop.
        3PC: after a failed coordinator round, run the (simplified,
        fail-stop) termination protocol over the peers: any decision is
        adopted; any PRECOMMITTED means commit; all-uncertain means abort.
        """
        txn = state.txn_id
        while self.up and txn in self._prepared:
            answer = yield from self._ask(state.coordinator, txn, presume_abort=True)
            if answer == "COMMIT":
                self.local_commit(txn)
                return
            if answer == "ABORT":
                self.local_abort(txn)
                return
            if state.acp == "3PC":
                decided = yield from self._terminate_3pc(state)
                if decided:
                    return
            yield self.sim.timeout(self.decision_retry)

    def _terminate_3pc(self, state: PreparedState):
        """Simplified (fail-stop) 3PC termination over the reachable peers.

        * Any peer with a decision → adopt it.
        * Any reachable PRECOMMITTED peer (or self) → COMMIT: precommit
          certifies unanimous YES votes.
        * Otherwise → ABORT: the coordinator commits only after delivering
          PRECOMMIT to the operational participants, so if none of them is
          precommitted nobody can have committed.  (This is the classic
          no-partition assumption of 3PC; crashed peers adopt the outcome
          via their own recovery resolution.)
        """
        txn = state.txn_id
        saw_precommit = state.precommitted
        reached_any = False
        for peer in state.peers:
            if peer == self.address:
                continue
            answer = yield from self._ask(peer, txn, presume_abort=False)
            if answer == "COMMIT":
                self.local_commit(txn)
                return True
            if answer == "ABORT":
                self.local_abort(txn)
                return True
            if answer == "PRECOMMITTED":
                saw_precommit = True
            if answer is not None:
                reached_any = True
        if saw_precommit:
            self.local_commit(txn)
            return True
        if reached_any or len([p for p in state.peers if p != self.address]) == 0:
            self.local_abort(txn)
            return True
        return False  # total isolation: keep retrying

    def _ask(self, address: Optional[str], txn: int, presume_abort: bool):
        if address is None:
            return None
        if address == self.address:
            return self.decision_of(txn, presume_abort=presume_abort)
        try:
            reply = yield self.endpoint.request(
                address,
                MessageType.DECISION_REQ,
                {"txn": txn, "presume_abort": presume_abort},
                timeout=self.decision_retry,
                txn_id=txn,
            )
        except (RpcTimeout, NetworkError):
            return None
        decision = (reply.payload or {}).get("decision")
        return decision  # may be UNCERTAIN/UNKNOWN — the caller interprets

    # ------------------------------------------------------------------ helpers
    def _touch(self, txn: int) -> None:
        self._activity[txn] = self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.up else "down"
        return f"<Site {self.name}@{self.host} {status} ccp={self.ccp_name}>"

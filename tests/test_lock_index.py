"""The lock manager's indexes: same outcomes as a full-table scan, kept clean.

``LockManager`` walks only the items a transaction touched (``_items_of``)
or the items with queued requests (``_waiting``), in lock-table order.
``ScanningLockManager`` below is the reference: the same lock manager with
every one of those walks done over the whole table, as it was before the
indexes existed.
"""

from dataclasses import asdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import RainbowConfig
from repro.core.instance import RainbowInstance
from repro.errors import ConcurrencyAbort
from repro.sim.kernel import Simulator
from repro.site.locks import LockManager, LockMode
from repro.workload.spec import WorkloadSpec

STRATEGIES = ["detect", "timeout", "wait_die", "wound_wait"]
WAIT_TIMEOUT = 10.0


class ScanningLockManager(LockManager):
    """Reference model: every lookup scans the whole lock table."""

    def release_all(self, txn_id):
        for item, entry in self._table.items():
            dirty = False
            if txn_id in entry.holders:
                del entry.holders[txn_id]
                dirty = True
            kept = [r for r in entry.queue if r.txn_id != txn_id]
            if len(kept) != len(entry.queue):
                entry.queue = kept
                dirty = True
            if dirty:
                self._grant_from_queue(item, entry)
        self._ts_of.pop(txn_id, None)

    def held_locks(self, txn_id):
        return {
            item: entry.holders[txn_id]
            for item, entry in self._table.items()
            if txn_id in entry.holders
        }

    def waiting_count(self):
        return sum(len(entry.queue) for entry in self._table.values())

    def waiting_info(self):
        return [
            (r.txn_id, r.ts, item, self._blockers_of(entry, r), r.enqueued_at)
            for item, entry in self._table.items()
            for r in entry.queue
        ]

    def blockers_of(self, txn_id):
        blockers = set()
        for entry in self._table.values():
            for request in entry.queue:
                if request.txn_id == txn_id:
                    blockers |= self._blockers_of(entry, request)
        return blockers

    def _is_waiting(self, txn_id):
        return any(
            request.txn_id == txn_id
            for entry in self._table.values()
            for request in entry.queue
        )

    def _wait_for_graph(self):
        graph = {}
        for entry in self._table.values():
            for request in entry.queue:
                graph.setdefault(request.txn_id, set()).update(
                    self._blockers_of(entry, request)
                )
        return graph

    def _abort_waiter(self, txn_id, reason):
        for entry in self._table.values():
            for request in list(entry.queue):
                if request.txn_id == txn_id:
                    entry.queue.remove(request)
                    if not request.event.triggered:
                        request.event.fail(ConcurrencyAbort(reason))
        for item, entry in self._table.items():
            self._grant_from_queue(item, entry)


class Harness:
    """One lock manager on its own simulator, logging every outcome."""

    def __init__(self, cls, strategy):
        self.sim = Simulator()
        self.log = []
        self.locks = cls(
            self.sim,
            strategy=strategy,
            wait_timeout=WAIT_TIMEOUT,
            on_wound=lambda txn: self.log.append(("wound", txn)),
            on_block=lambda txn, ts, blockers: self.log.append(
                ("block", txn, sorted(blockers))
            ),
        )

    def apply(self, step, op):
        kind = op[0]
        if kind == "acquire":
            _, txn, item, mode = op
            event = self.locks.acquire(txn, float(txn), item, mode)
            event.callbacks.append(
                lambda ev: self.log.append(
                    (step, txn, item, mode, ev.ok, ev.value if ev.ok else str(ev.value))
                )
            )
        elif kind == "release":
            self.locks.release_all(op[1])
        elif kind == "abort":
            self.log.append(("abort_waiter", op[1], self.locks.abort_waiter(op[1], "victim")))
        else:
            self.sim.run(until=self.sim.now + op[1])
        self.sim.run(until=self.sim.now)  # run this instant's callbacks

    def state(self, txns):
        locks = self.locks
        return {
            "held": {txn: locks.held_locks(txn) for txn in txns},
            "blockers": {txn: locks.blockers_of(txn) for txn in txns},
            "waiting_info": locks.waiting_info(),
            "waiting_count": locks.waiting_count(),
            "dot": locks.wait_for_graph_dot(),
            "stats": asdict(locks.stats),
            "now": self.sim.now,
        }


def assert_indexes_exact(locks):
    """Both indexes hold exactly what a scan of the table would find."""
    items_of, waiting = {}, set()
    for item, entry in locks._table.items():
        touching = set(entry.holders) | {r.txn_id for r in entry.queue}
        for txn in touching:
            items_of.setdefault(txn, set()).add(item)
        if entry.queue:
            waiting.add(item)
    assert locks._items_of == items_of
    assert locks._waiting == waiting


TXNS = [1, 2, 3, 4]
operations = st.one_of(
    st.tuples(
        st.just("acquire"),
        st.sampled_from(TXNS),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from([LockMode.S, LockMode.X]),
    ),
    st.tuples(st.just("release"), st.sampled_from(TXNS)),
    st.tuples(st.just("abort"), st.sampled_from(TXNS)),
    st.tuples(st.just("advance"), st.sampled_from([1.0, 4.0, WAIT_TIMEOUT + 1.0])),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(strategy=st.sampled_from(STRATEGIES), ops=st.lists(operations, max_size=40))
def test_indexed_lock_manager_matches_full_table_scan(strategy, ops):
    indexed = Harness(LockManager, strategy)
    reference = Harness(ScanningLockManager, strategy)
    for step, op in enumerate(ops):
        indexed.apply(step, op)
        reference.apply(step, op)
        assert indexed.log == reference.log, op
        assert indexed.state(TXNS) == reference.state(TXNS), op
        assert_indexes_exact(indexed.locks)
    for txn in TXNS:
        indexed.locks.release_all(txn)
    assert indexed.locks._items_of == {}
    assert indexed.locks._waiting == set()


# ---------------------------------------------------------------------------
# Index hygiene after a real session


def test_indexes_exact_after_contended_session_with_crash():
    config = RainbowConfig.quick(n_sites=4, n_items=8, replication_degree=3, seed=1)
    config.distributed_deadlock = True
    config.probe_interval = 5.0
    config.settle_time = 200.0
    config.faults.schedule.crashes.append(("site2", 20.0))
    config.faults.schedule.recoveries.append(("site2", 45.0))
    instance = RainbowInstance(config)
    instance.run_workload(
        WorkloadSpec(n_transactions=40, arrival_rate=1.0, read_fraction=0.4)
    )
    assert instance.sites["site2"].stats.recoveries == 1
    stats = [site.cc.locks.stats for site in instance.sites.values()]
    assert sum(s.waits for s in stats) > 0 and sum(s.timeouts for s in stats) > 0
    for site in instance.sites.values():
        locks = site.cc.locks
        assert locks._waiting == set(), site.name
        assert locks.waiting_count() == 0
        # Failed requests leave no index entries: whatever is still indexed
        # is a lock really held (by a transaction whose home site crashed
        # before it could release it at this site).
        assert_indexes_exact(locks)


# ---------------------------------------------------------------------------
# Scaling guard: no hot path walks the whole table


class UnwalkableTable(dict):
    def _walk(self, *args):
        raise AssertionError("lock manager walked the whole lock table")

    __iter__ = keys = values = items = _walk


def test_hot_paths_never_walk_the_lock_table():
    sim = Simulator()
    locks = LockManager(sim, strategy="detect", wait_timeout=WAIT_TIMEOUT)
    locks._table = UnwalkableTable()
    for n in range(50):
        locks.acquire(100, 100.0, f"cold{n}", LockMode.S)
    locks.release_all(100)

    locks.acquire(1, 1.0, "x", LockMode.X)
    locks.acquire(2, 2.0, "y", LockMode.X)
    waits_on_y = locks.acquire(1, 1.0, "y", LockMode.X)
    locks.acquire(3, 3.0, "x", LockMode.S)
    closes_cycle = locks.acquire(2, 2.0, "x", LockMode.X)  # 2 is the youngest
    assert locks.waiting_info() and locks.blockers_of(3) == {1}
    assert locks.held_locks(1) == {"x": "X"}
    assert locks.wait_for_graph_dot().startswith("digraph")
    assert not locks.abort_waiter(99, "not waiting")
    sim.run(until=sim.now)
    assert not closes_cycle.ok
    locks.release_all(2)
    sim.run(until=sim.now)
    assert waits_on_y.ok
    assert locks.abort_waiter(3, "victim")
    locks.release_all(3)
    locks.release_all(1)
    locks.acquire(4, 4.0, "z", LockMode.X)
    times_out = locks.acquire(5, 5.0, "z", LockMode.S)
    sim.run()
    assert not times_out.ok and locks.stats.timeouts == 1
    for txn in (2, 4, 5):
        locks.release_all(txn)
    assert locks.waiting_count() == 0
    assert locks.stats.deadlocks == 2

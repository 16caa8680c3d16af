"""Per-layer host timing by wrapping each layer's functions from outside.

:class:`LayerTrace` replaces the functions listed in :data:`TARGETS` with
timing wrappers, without editing the program.  For a plain call it records
the host time; for a generator function it times every resume (the kernel
drives simulated processes by resuming generators) and the simulated time
from the first resume to the return, which is the time the call waited.
A call's *self* time is its host time minus the host time of wrapped calls
nested inside it, so self times of all layers add up to the traced session.

The wrappers never draw randomness, never yield on their own and pass every
value and exception through, so a traced session makes the same decisions
as an untraced one.  :meth:`LayerTrace.uninstall` restores every function;
the benchmark also confines each traced session to its own interpreter.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns
from typing import Any, Callable, Optional

__all__ = ["LayerTrace", "TARGETS"]

#: (layer, "module:Class" or "module:function", method names) to wrap.
#: ``*Class`` wraps the named methods on every subclass that defines them.
TARGETS: list[tuple[str, str, tuple[str, ...]]] = [
    ("sim", "repro.sim.kernel:Simulator", ("run", "process")),
    ("net", "repro.net.network:Network", ("send",)),
    ("net", "repro.net.network:Endpoint", ("send", "reply", "request", "receive")),
    (
        "site",
        "repro.site.site:Site",
        (
            "local_read",
            "local_prewrite",
            "local_prepare",
            "local_precommit",
            "local_commit",
            "local_abort",
            "decision_of",
            "crash",
            "recover",
            "take_checkpoint",
        ),
    ),
    ("site", "repro.site.deadlock:DeadlockDetector", ("on_block", "handle")),
    ("locks", "repro.site.locks:LockManager", ("acquire", "release_all")),
    (
        "wal",
        "repro.site.wal:WriteAheadLog",
        (
            "log_prepare",
            "log_precommit",
            "log_commit",
            "log_abort",
            "log_end",
            "checkpoint",
            "recover_state",
        ),
    ),
    (
        "ccp",
        "repro.protocols.base:*ConcurrencyController",
        ("read", "prewrite", "commit", "abort", "validate"),
    ),
    ("rcp", "repro.protocols.base:*ReplicationController", ("do_read", "do_write")),
    ("acp", "repro.protocols.base:*CommitProtocol", ("run",)),
    (
        "txn",
        "repro.txn.coordinator:TxnContext",
        (
            "access_read",
            "access_prewrite",
            "access_read_many",
            "access_prewrite_many",
            "collect_votes",
            "broadcast",
        ),
    ),
    ("txn", "repro.txn.coordinator:run_transaction", ()),
    ("history", "repro.txn.history:HistoryRecorder", ("record_commit", "check_serializable")),
    (
        "monitor",
        "repro.monitor.stats:ProgressMonitor",
        ("txn_submitted", "txn_finished", "output_statistics"),
    ),
    ("obs", "repro.obs.spans:SpanTracer", ("begin", "finish", "record")),
    ("obs", "repro.obs.analyze:aggregate_phase_stats", ()),
    ("nameserver", "repro.nameserver.catalog:Catalog", ("from_dict",)),
    ("core", "repro.core.instance:RainbowInstance", ("__init__", "start")),
    ("workload", "repro.workload.generator:WorkloadGenerator", ("make_transaction",)),
]

# Modules whose import registers the protocol subclasses wrapped above.
_PROTOCOL_PACKAGES = ("repro.protocols.ccp", "repro.protocols.rcp", "repro.protocols.acp")


class CallStat:
    """Counters for one wrapped function."""

    __slots__ = ("calls", "resumes", "self_ns", "total_ns", "sim_tu", "raised")

    def __init__(self) -> None:
        self.calls = 0
        self.resumes = 0
        self.self_ns = 0
        self.total_ns = 0
        self.sim_tu = 0.0
        self.raised = 0

    def as_list(self) -> list:
        return [self.calls, self.resumes, self.self_ns, self.total_ns, self.sim_tu, self.raised]

    def reset(self) -> None:
        self.__init__()


class _TimedGenerator:
    """Delegates to a generator, timing each resume (send/throw)."""

    def __init__(self, trace: "LayerTrace", stat: CallStat, generator) -> None:
        self._trace = trace
        self._stat = stat
        self._generator = generator
        self._started_at: Optional[float] = None
        self.__name__ = getattr(generator, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._generator.send, None)

    def send(self, value):
        return self._resume(self._generator.send, value)

    def throw(self, *args):
        return self._resume(self._generator.throw, *args)

    def close(self) -> None:
        self._generator.close()

    def _resume(self, method: Callable, *args):
        trace = self._trace
        stat = self._stat
        stat.resumes += 1
        if self._started_at is None:
            self._started_at = trace.sim_now()
        stack = trace.stack
        stack.append(0)
        started = perf_counter_ns()
        try:
            return method(*args)
        except StopIteration:
            stat.sim_tu += trace.sim_now() - self._started_at
            raise
        except BaseException:
            stat.sim_tu += trace.sim_now() - self._started_at
            stat.raised += 1
            raise
        finally:
            elapsed = perf_counter_ns() - started
            nested = stack.pop()
            stat.self_ns += elapsed - nested
            stat.total_ns += elapsed
            if stack:
                stack[-1] += elapsed


class LayerTrace:
    """Installs timing wrappers on :data:`TARGETS` and collects their counters."""

    def __init__(self) -> None:
        self.stats: dict[str, CallStat] = {}
        self.stack: list[int] = []
        self.sim = None  # the simulator whose clock measures waits
        self.lock_managers: list = []
        self.missing: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def sim_now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def take(self) -> dict[str, list]:
        """Return the counters collected so far and start from zero."""
        taken = {key: stat.as_list() for key, stat in self.stats.items()}
        for stat in self.stats.values():
            stat.reset()
        return taken

    # -- install / uninstall -------------------------------------------------------
    def install(self) -> None:
        for package in _PROTOCOL_PACKAGES:
            importlib.import_module(package)
        for layer, target, names in TARGETS:
            module_name, _, attr = target.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(target)
                continue
            if attr.startswith("*"):
                base = getattr(module, attr[1:], None)
                if base is None:
                    self.missing.append(target)
                    continue
                for cls in _subclasses(base):
                    for name in names:
                        if name in cls.__dict__:
                            self._patch(cls, name, f"{layer}:{cls.__name__}.{name}")
            elif not names:
                self._patch_function(module, attr, f"{layer}:{attr}")
            else:
                owner = getattr(module, attr, None)
                for name in names:
                    if owner is None or name not in owner.__dict__:
                        self.missing.append(f"{target}.{name}")
                    else:
                        self._patch(owner, name, f"{layer}:{attr}.{name}")
        self._register_lock_managers()

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, key: str) -> None:
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(raw.__func__, key))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, key))
        else:
            wrapped = self._wrap(raw, key)
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, raw))

    def _patch_function(self, module, name: str, key: str) -> None:
        """Wrap a module-level function in every module that imported it."""
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module.__name__}:{name}")
            return
        wrapped = self._wrap(original, key)
        for module_name, other in list(sys.modules.items()):
            if module_name.partition(".")[0] == "repro" and getattr(other, name, None) is original:
                setattr(other, name, wrapped)
                self._undo.append((other, name, original))

    def _register_lock_managers(self) -> None:
        """Keep every LockManager: a recovering site replaces its CCP's."""
        from repro.site.locks import LockManager

        original = LockManager.__dict__["__init__"]
        managers = self.lock_managers

        @functools.wraps(original)
        def init(manager, *args, **kwargs):
            original(manager, *args, **kwargs)
            managers.append(manager)

        LockManager.__init__ = init
        self._undo.append((LockManager, "__init__", original))

    def _wrap(self, fn: Callable, key: str) -> Callable:
        stat = self.stats.setdefault(key, CallStat())
        trace = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                stat.calls += 1
                return _TimedGenerator(trace, stat, fn(*args, **kwargs))

            return generator_wrapper

        @functools.wraps(fn)
        def call_wrapper(*args, **kwargs):
            stat.calls += 1
            stack = trace.stack
            stack.append(0)
            started = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = perf_counter_ns() - started
                nested = stack.pop()
                stat.self_ns += elapsed - nested
                stat.total_ns += elapsed
                if stack:
                    stack[-1] += elapsed

        return call_wrapper


def _subclasses(base: type) -> list[type]:
    found: list[type] = []
    pending = [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found

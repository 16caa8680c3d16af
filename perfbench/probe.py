"""Host speed probe: host CPU time expressed in reference seconds.

The benchmark runs on shared virtual machines.  Their vCPUs are taken away
for whole seconds, and while they run, neighbours on the same physical cores
and caches slow them down by up to a factor of two, in phases that last
seconds.  Wall time sees both effects and CPU time sees the second.
:class:`SpeedProbe` measures the host's speed while the measured code runs
and removes it.

* Time is the CPU time of the session's thread (``thread_time``): it stops
  while the vCPU is taken away.  ``process_time`` is not used because it
  drops to timer-tick resolution while a CPU-time interval timer is armed.
* A ``SIGPROF`` interval timer interrupts the process every ``period_s`` of
  CPU time.  Between two bytecodes of the measured code it runs a fixed
  pure-Python kernel: cache-resident simulator-like interpreter work
  (:func:`_interpreter_work`) and a walk over a buffer larger than the
  per-core caches (:class:`_MemoryWalk`).  The kernel never touches the
  program's state.  It costs :data:`REFERENCE_KERNEL_S` on the reference
  machine, so its cost now gives the host's momentary speed.
* A section's *reference seconds* are its CPU seconds, less the time spent
  in the probe, times the mean speed sampled during it::

      ref_s = (cpu_s - probe_s) * mean(REFERENCE_KERNEL_S / kernel_s)

  Sampling is uniform in CPU time, so the mean weights every part of the
  section by its length.  Short sections (a 10 ms bring-up) get few timer
  samples, so each section is also bracketed by :data:`_BRACKET` kernel runs
  before and after it.

The program's own cost is what moves the result: twice the work reads about
twice the reference seconds at any host speed.  The correction is not exact,
because the program and the kernel feel the neighbours differently.  On a
2-vCPU Intel Xeon virtual machine, the same hotspot-closed session run eight
times gave throughputs within +-9% in wall time and within +-3% in reference
seconds.
"""

from __future__ import annotations

import heapq
import signal
import statistics
from time import thread_time

__all__ = ["SpeedProbe", "REFERENCE_KERNEL_S", "MEMORY_WALK_BYTES"]

#: CPU seconds of one kernel run (interpreter work and memory walk) inside a
#: session on the reference machine: one vCPU of an Intel Xeon virtual
#: machine, Python 3.11.
REFERENCE_KERNEL_S = 0.00060

#: Kernel runs before and after each section.
_BRACKET = 8

#: Size of the memory walk's buffer; it is part of the session's peak RSS.
MEMORY_WALK_BYTES = 4 << 20

#: Bytes between two reads: a new cache line and often a new page each time.
_STRIDE = 12_544


class _Event:
    __slots__ = ("time", "kind", "payload")

    def __init__(self, time: float, kind: int, payload: int) -> None:
        self.time = time
        self.kind = kind
        self.payload = payload


def _interpreter_work() -> int:
    """Cache-resident interpreter work of a discrete-event simulator: heap
    pushes and pops, small objects, attribute and dict access, calls and a
    generator resume per event."""
    queue: list = []
    table: dict = {}

    def handler():
        total = 0
        while True:
            event = yield total
            total += event.payload
            table[event.kind] = table.get(event.kind, 0) + 1

    process = handler()
    next(process)
    seq = 0
    for step in range(300):
        heapq.heappush(queue, (step * 7 % 101 + 0.5, seq, _Event(step * 0.5, step % 13, step)))
        seq += 1
        if len(queue) > 24:
            _, _, event = heapq.heappop(queue)
            process.send(event)
    return len(table)


class _MemoryWalk:
    """Reads scattered over a buffer larger than the per-core caches, as a
    large heap's pointer chasing does.  Each run resumes where the last one
    stopped."""

    def __init__(self) -> None:
        self.buffer = bytearray(range(256)) * (MEMORY_WALK_BYTES // 256)
        self.position = 0

    def __call__(self) -> int:
        buffer, size, index, total = self.buffer, len(self.buffer), self.position, 0
        for _ in range(1200):
            total += buffer[index]
            index = (index + _STRIDE) % size
        self.position = index
        return total


class SpeedProbe:
    """Samples host speed while sections of code run; see the module doc."""

    def __init__(self, period_s: float = 0.02) -> None:
        self.period_s = period_s
        self._speeds: list[float] = []
        self._probe_s = 0.0
        self.speed = 1.0  # mean speed of the last section, for the run's notes
        self.section_probe_s = 0.0  # probe CPU time inside the last section
        self._previous = None
        self._walk = _MemoryWalk()
        self._sampling = False

    def _sample(self) -> None:
        self._sampling = True
        started = thread_time()
        _interpreter_work()
        self._walk()
        spent = thread_time() - started
        self._sampling = False
        self._probe_s += spent
        self._speeds.append(REFERENCE_KERNEL_S / spent if spent > 0 else 1.0)

    def _on_timer(self, signum, frame) -> None:
        if not self._sampling:  # a tick during a bracket sample is dropped
            self._sample()

    def start(self) -> None:
        """Start sampling in the background (CPU-time timer)."""
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, self.period_s, self.period_s)

    def stop(self) -> None:
        """Stop sampling and restore the previous ``SIGPROF`` handler."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def begin(self) -> float:
        """Open a section: bracket samples, then its CPU start time."""
        self._speeds = []
        for _ in range(_BRACKET):
            self._sample()
        self._probe_s = 0.0
        return thread_time()

    def end(self, started: float) -> float:
        """Close a section: the reference seconds of its own work."""
        self.section_probe_s = self._probe_s
        cpu_s = thread_time() - started - self._probe_s
        for _ in range(_BRACKET):
            self._sample()
        self.speed = statistics.fmean(self._speeds)
        return cpu_s * self.speed

"""Causal span store for transaction tracing.

A *span* is a named time interval attributed to one transaction at one
site, optionally nested under a parent span.  The coordinator opens a
root span per transaction attempt; the replica-control, concurrency-
control, and atomic-commit layers open children; the network records one
span per delivered (or dropped) message.  Together they form a causal
DAG whose root-to-leaf paths explain where a transaction's latency went.

Determinism contract (enforced by rainbow-lint rule RB106): span ids are
derived purely from ``(txn_id, site, sequence)`` — never from ``id()``,
RNG draws, or the wall clock — and spans are appended in simulator
execution order.  Because the kernel schedules deterministically for a
given seed, the span list (ids, ordering, timestamps) is a pure function
of the seed.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Span", "SpanTracer"]


class Span:
    """One named interval in a transaction's causal timeline.

    The id ``t{txn_id}:{site}:{seq}`` is formatted on first read of
    :attr:`span_id` and cached: most spans are leaves (``ccp.*``,
    ``net.msg``) that nothing names as a parent while the session runs.
    """

    __slots__ = ("txn_id", "site", "seq", "parent_id", "name", "start", "end", "attrs", "_id")

    def __init__(
        self,
        txn_id: int,
        site: str,
        seq: int,
        parent_id: Optional[str],
        name: str,
        start: float,
        end: Optional[float],
        attrs: dict[str, Any],
    ) -> None:
        self.txn_id = txn_id
        self.site = site
        self.seq = seq
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs
        self._id: Optional[str] = None

    @property
    def span_id(self) -> str:
        span_id = self._id
        if span_id is None:
            span_id = self._id = f"t{self.txn_id}:{self.site}:{self.seq}"
        return span_id

    @property
    def duration(self) -> float:
        """Span length; an unfinished span has zero duration."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"Span({self.span_id!r}, parent={self.parent_id!r}, name={self.name!r}, "
            f"start={self.start!r}, end={self.end!r}, attrs={self.attrs!r})"
        )


class SpanTracer:
    """Collects spans for one simulation session.

    One tracer is shared by the network, every site, and every
    coordinator context of a :class:`~repro.core.instance.RainbowInstance`
    (see ``RainbowInstance.enable_tracing``).  Ids follow the scheme
    ``t{txn_id}:{site}:{seq}`` where ``seq`` is a per-(txn, site) counter
    taken when the span is recorded, so they are stable across processes
    and across ``-j N``.

    :attr:`spans` is only ever appended to.  The views (:meth:`get`,
    :meth:`root`, :meth:`children`, :meth:`txn_spans`, :meth:`txn_ids`)
    read indexes built on the first view call and extended with the spans
    appended since.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.spans: list[Span] = []
        self._seq: dict[tuple[int, str], int] = {}
        self._indexed = 0
        self._roots: dict[int, Span] = {}
        self._children: dict[Optional[str], list[Span]] = {}
        self._by_txn: dict[int, list[Span]] = {}
        self._by_id: dict[str, Span] = {}

    # -- recording ---------------------------------------------------------

    def begin(
        self,
        txn_id: int,
        site: str,
        name: str,
        *,
        parent: Optional[str] = None,
        start: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; close it later with :meth:`finish`."""
        key = (txn_id, site)
        seq = self._seq[key] = self._seq.get(key, 0) + 1
        span = Span(
            txn_id, site, seq, parent, name,
            self.sim._now if start is None else start, None, attrs,
        )
        self.spans.append(span)
        return span

    def finish(self, span: Span, end: Optional[float] = None) -> None:
        """Close an open span at ``end`` (default: simulated now)."""
        span.end = self.sim._now if end is None else end

    def record(
        self,
        txn_id: int,
        site: str,
        name: str,
        *,
        start: float,
        end: float,
        parent: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-complete span (e.g. a message flight)."""
        key = (txn_id, site)
        seq = self._seq[key] = self._seq.get(key, 0) + 1
        span = Span(txn_id, site, seq, parent, name, start, end, attrs)
        self.spans.append(span)
        return span

    # -- views -------------------------------------------------------------

    def _index(self) -> None:
        """Bring the view indexes up to date with :attr:`spans`."""
        spans = self.spans
        if self._indexed == len(spans):
            return
        roots, children, by_txn, by_id = self._roots, self._children, self._by_txn, self._by_id
        for span in spans[self._indexed:]:
            txn_id = span.txn_id
            if span.name == "txn" and txn_id not in roots:
                roots[txn_id] = span
            children.setdefault(span.parent_id, []).append(span)
            by_txn.setdefault(txn_id, []).append(span)
            by_id[span.span_id] = span
        self._indexed = len(spans)

    def get(self, span_id: str) -> Optional[Span]:
        self._index()
        return self._by_id.get(span_id)

    def txn_ids(self) -> list[int]:
        """Traced transaction ids, ascending."""
        self._index()
        return sorted(self._by_txn)

    def txn_spans(self, txn_id: int) -> list[Span]:
        """All spans of one transaction, in recording order."""
        self._index()
        return list(self._by_txn.get(txn_id, ()))

    def root(self, txn_id: int) -> Optional[Span]:
        """The transaction's root (``txn``) span, if it was traced."""
        self._index()
        return self._roots.get(txn_id)

    def children(self, span_id: str) -> list[Span]:
        """Direct children of a span, in recording order."""
        self._index()
        return list(self._children.get(span_id, ()))

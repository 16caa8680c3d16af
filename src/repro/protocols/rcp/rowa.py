"""Read-One-Write-All (ROWA) replication control.

Reads touch a single copy — the local one when the home site holds a copy,
otherwise the first reachable remote copy.  Writes must pre-write **every**
copy; a single unreachable replica holder makes the write impossible, which
is exactly ROWA's availability weakness that quorum consensus fixes
(EXP-AVAIL reproduces the collapse).

Abort classification:

* a CCP rejection at any copy → :class:`~repro.errors.ConcurrencyAbort`
  (counted against the CCP);
* an unreachable copy that ROWA *requires* → :class:`~repro.errors.ReplicationAbort`
  (counted against the RCP).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import ConcurrencyAbort, ReplicationAbort
from repro.protocols.base import ReplicationController

__all__ = ["RowaController"]


class RowaController(ReplicationController):
    """Read one copy, write all copies."""

    name = "ROWA"

    def do_read(self, ctx, item: str) -> Generator:
        spec = ctx.catalog.item(item)
        candidates = ctx.order_local_first(spec.sites)
        failures = []
        for site in candidates:
            result = yield from ctx.access_read(site, item)
            if result.ok:
                ctx.note_read(item, result.version)
                return result.value
            if result.kind == "ccp":
                raise ConcurrencyAbort(f"read {item!r} at {site}: {result.reason}")
            failures.append(f"{site}: {result.reason}")
        raise ReplicationAbort(f"no copy of {item!r} reachable ({'; '.join(failures)})")

    def do_write(self, ctx, item: str, value: Any) -> Generator:
        spec = ctx.catalog.item(item)
        sites = ctx.order_local_first(spec.sites)
        wave_span = ctx.begin_span("rcp.wave", sites=",".join(sites))
        try:
            results = yield from ctx.access_prewrite_many(sites, item, value)
        finally:
            ctx.end_span(wave_span)
        ccp_failures = [r for r in results if not r.ok and r.kind == "ccp"]
        if ccp_failures:
            raise ConcurrencyAbort(
                f"prewrite {item!r} rejected at {ccp_failures[0].site}: "
                f"{ccp_failures[0].reason}"
            )
        written = self.written_copies(item, results)
        new_version = ctx.assign_version(written)
        for result in written:
            ctx.note_prewrite(result.site, item, new_version)
        ctx.note_write(item, new_version)

    def written_copies(self, item: str, results: list) -> list:
        """The copies a write installs, given every copy's pre-write result.

        ROWA needs all of them: any unreachable copy aborts the write.
        """
        unreachable = [r.site for r in results if not r.ok]
        if unreachable:
            raise ReplicationAbort(
                f"ROWA write needs all {len(results)} copies of {item!r}; "
                f"unreachable: {unreachable}"
            )
        return results

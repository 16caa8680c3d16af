"""ROWA-Available (available copies) replication control.

The middle ground between ROWA and quorum consensus, and the scheme the
SETH lineage ([3] in the paper) used for its failure experiments: reads
touch one copy; writes touch **every reachable** copy and tolerate
unreachable holders (at least one copy must accept).  Write availability is
therefore as good as "any copy up", unlike ROWA's "all copies up".

The textbook caveat is reproduced on purpose: without the validation
protocol real available-copies systems add, a network *partition* can let
both sides write "their" copies independently — one-copy serializability is
lost (two committed writers can install conflicting versions).  The
classroom test demonstrates exactly that, caught by the history checker's
version-collision detector.  Under fail-stop site crashes (no partitions),
the protocol behaves correctly.
"""

from __future__ import annotations

from repro.errors import ReplicationAbort
from repro.protocols.rcp.rowa import RowaController

__all__ = ["AvailableCopiesController"]


class AvailableCopiesController(RowaController):
    """Read one copy, write all *available* copies.

    Reads and the write wave are ROWA's; only what an unreachable copy
    means differs.
    """

    name = "ROWAA"

    def written_copies(self, item: str, results: list) -> list:
        """Unreachable copies are skipped; at least one copy must accept."""
        accepted = [r for r in results if r.ok]
        if not accepted:
            raise ReplicationAbort(
                f"no available copy of {item!r} accepted the write"
            )
        return accepted

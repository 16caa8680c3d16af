"""Golden outputs: seeded tables, chaos reports and traces that must not change by accident.

Each golden file is the exact output of a CLI command, or of
``tests/event_stream.py``.  Both run in this process: every id a session
uses comes from its own instance, so the output does not depend on what ran
before it.  Regenerate a fixture only for an intended behaviour change, and
say so in the change log::

    PYTHONPATH=src python -m repro experiment abl --json > tests/fixtures/golden/exp_abl.json
"""

from pathlib import Path

from tests.conftest import run_cli
from tests.event_stream import event_stream

GOLDEN = Path(__file__).parent / "fixtures" / "golden"


def test_exp_abl_matches_golden():
    # The only seeded output that runs every 2PL deadlock strategy
    # (detect, timeout, wait_die, wound_wait) end to end.
    produced = run_cli("experiment", "abl", "--json")
    assert produced == (GOLDEN / "exp_abl.json").read_text()


def test_exp_scale_matches_golden():
    # Bring-up at 1..8 sites with partial replication: guards that how the
    # catalog reaches each site leaves every seeded row unchanged.
    produced = run_cli("experiment", "scale", "--json")
    assert produced == (GOLDEN / "exp_scale.json").read_text()


def test_exp_matrix_matches_golden():
    # Every RCP x CCP x ACP cell on one seed.
    produced = run_cli("experiment", "matrix", "--json")
    assert produced == (GOLDEN / "exp_matrix.json").read_text()


def test_chaos_matches_golden():
    # QC/2PL/2PC under 25 nemesis seeds: crashes, partitions and flaky
    # links make RPCs time out, so this pins where every expiry fires.
    produced = run_cli("chaos", "--seeds", "25", "-j", "0")
    assert produced == (GOLDEN / "chaos_qc_2pl_2pc.txt").read_text()


def test_chaos_flags_on_matches_golden():
    # The same suite with co-located sites and every message-economy flag:
    # batched gateway accesses and piggybacked votes.
    produced = run_cli(
        "chaos", "--seeds", "25", "-j", "0", "--sites-per-host", "2",
        "--batch-site-ops", "--piggyback-prepare", "--latency-aware-routing",
    )
    assert produced == (GOLDEN / "chaos_flags_on.txt").read_text()


def test_trace_matches_golden():
    # Per-phase latency and the critical path of one traced session.
    produced = run_cli("trace", "--seed", "7")
    assert produced == (GOLDEN / "trace_seed7.txt").read_text()


def test_trace_txn_matches_golden():
    # One transaction's full span tree: every message, lock wait and vote
    # with its simulated start and end.
    produced = run_cli("trace", "--seed", "7", "--txn", "22")
    assert produced == (GOLDEN / "trace_seed7_txn22.txt").read_text()


def test_exp_avail_matches_golden():
    # Availability under site failures: commits there depend on exactly
    # when fault-driven RPC timeouts fire.
    produced = run_cli("experiment", "avail", "--json")
    assert produced == (GOLDEN / "exp_avail.json").read_text()


def test_event_stream_crashes_matches_golden():
    # Every local read, pre-write, prepare, pre-commit, commit and abort the
    # sites report, and every span, on QC/2PL/2PC with two site crashes.
    produced = event_stream("qc-2pl-crashes")
    assert produced == (GOLDEN / "events_qc_2pl_crashes.txt").read_text()


def test_event_stream_flags_on_matches_golden():
    # The same stream on QC/MVTO/2PC with co-located sites and every
    # message-economy flag: batched accesses and piggybacked prepares.
    produced = event_stream("qc-mvto-flags")
    assert produced == (GOLDEN / "events_qc_mvto_flags.txt").read_text()

"""Each lint rule fires on its bad fixture at exact lines, and stays
quiet on the good fixture."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.core import RULES, run_analysis
from repro.errors import AnalysisError

FIXTURES = Path(__file__).parent / "fixtures"


def findings(name: str, select: list[str] | None = None) -> list[tuple[str, int]]:
    path = FIXTURES / name
    return [(finding.rule, finding.line)
            for finding in run_analysis([str(path)], select=select)]


# ----------------------------------------------------------------------
# TRX1xx — lock discipline
# ----------------------------------------------------------------------
def test_lock_discipline_flags_unguarded_and_read_side_writes() -> None:
    assert findings("lock_bad.py", select=["TRX1"]) == [
        ("TRX101", 13),   # self.requests += 1 without self._lock
        ("TRX102", 17),   # self.epoch += 1 under rwlock.read()
    ]


def test_lock_discipline_accepts_sanctioned_shapes() -> None:
    assert findings("lock_good.py", select=["TRX1"]) == []


# ----------------------------------------------------------------------
# TRX2xx — cost charging
# ----------------------------------------------------------------------
def test_cost_charging_flags_uncharged_decodes_and_private_pokes() -> None:
    assert findings("cost_bad.py", select=["TRX2"]) == [
        ("TRX201", 6),    # seq.entries()
        ("TRX201", 7),    # catalog.segment_entries(...)
        ("TRX202", 8),    # seq._payloads
    ]


def test_cost_charging_accepts_read_block_and_muted() -> None:
    assert findings("cost_good.py", select=["TRX2"]) == []


def test_backend_io_flags_raw_store_access() -> None:
    assert findings("backend_bad.py", select=["TRX205"]) == [
        ("TRX205", 8),    # open(f"{directory}/seg7.blk")
        ("TRX205", 13),   # sqlite3.connect(.../catalog.sqlite)
        ("TRX205", 17),   # open(... + "/segments.tsv")
    ]


def test_backend_io_accepts_backends_corpus_files_and_pragmas() -> None:
    assert findings("backend_good.py", select=["TRX205"]) == []


# ----------------------------------------------------------------------
# TRX3xx — determinism
# ----------------------------------------------------------------------
def test_determinism_flags_clock_randomness_and_set_iteration() -> None:
    assert findings("determinism_bad.py", select=["TRX3"]) == [
        ("TRX301", 9),    # time.time()
        ("TRX302", 13),   # random.random()
        ("TRX302", 17),   # random.Random() without a seed
        ("TRX303", 21),   # for value in {3, 1, 2}
    ]


def test_determinism_accepts_seeded_and_sorted() -> None:
    assert findings("determinism_good.py", select=["TRX3"]) == []


# ----------------------------------------------------------------------
# TRX4xx — stats registry
# ----------------------------------------------------------------------
def test_stats_registry_flags_unknown_and_computed_keys() -> None:
    assert findings("stats_bad.py", select=["TRX4"]) == [
        ("TRX401", 6),    # typo'd counter literal
        ("TRX401", 7),    # unregistered histogram literal
        ("TRX402", 8),    # f-string on an unregistered prefix
        ("TRX402", 10),   # computed (Name) key
    ]


def test_stats_registry_accepts_registered_keys_and_prefixes() -> None:
    assert findings("stats_good.py", select=["TRX4"]) == []


# ----------------------------------------------------------------------
# TRX5xx — exception policy
# ----------------------------------------------------------------------
def test_exception_policy_flags_broad_handlers() -> None:
    assert findings("exceptions_bad.py", select=["TRX5"]) == [
        ("TRX501", 8),    # except Exception
    ]


def test_pragmas_suppress_at_line_and_file_granularity() -> None:
    # allow-file[TRX501] waives the broad handler; the line pragma
    # waives the first typo'd counter; the unannotated one still fires.
    assert findings("pragmas.py", select=["TRX4", "TRX5"]) == [
        ("TRX401", 16),
    ]


# ----------------------------------------------------------------------
# Cross-function upgrades of TRX1xx / TRX2xx (the flow engine)
# ----------------------------------------------------------------------
def test_locked_convention_requirements_propagate_to_call_sites() -> None:
    # *_locked bodies are exempt from the intra-function rule; the
    # flow engine must flag both callers.
    assert findings("lock_interproc_bad.py", select=["TRX1"]) == [
        ("TRX101", 21),   # tick() calls _advance_locked() lock-free
        ("TRX102", 25),   # peek() calls it under the read side
    ]


def test_locked_convention_discharged_by_every_sanctioned_caller() -> None:
    assert findings("lock_interproc_good.py", select=["TRX1"]) == []


def test_lock_aliases_cover_writes_and_wrong_aliases_do_not() -> None:
    assert findings("lock_alias_good.py", select=["TRX1"]) == []
    assert findings("lock_alias_bad.py", select=["TRX1"]) == [
        ("TRX101", 14),   # with <alias of _flush_lock>: does not cover _lock
    ]


def test_lock_contracts_declared_outside_the_serving_packages_are_checked(
) -> None:
    # The __guarded_by__ declaration is the opt-in, not the package:
    # CostModel's contract lives in repro.storage.
    assert findings("lock_storage_bad.py", select=["TRX1"]) == [
        ("TRX101", 13),   # self._scopes += 1 without self._scope_lock
        ("TRX101", 19),   # close_scope() calls the *_locked helper lock-free
    ]
    assert findings("lock_storage_good.py", select=["TRX1"]) == []


def test_lock_order_cycles_flag_both_directions() -> None:
    assert findings("lockorder_bad.py", select=["TRX103"]) == [
        ("TRX103", 12),   # _b_lock acquired under _a_lock
        ("TRX103", 17),   # _a_lock acquired under _b_lock
    ]
    assert findings("lockorder_good.py", select=["TRX103"]) == []


def test_uncharged_decodes_are_caught_through_exempt_helpers() -> None:
    # The helper lives in an owner module (intra-exempt); only the
    # whole-program engine sees the query path decoding uncharged.
    directory = str(FIXTURES / "interproc_cost")
    flagged = [(f.rule, Path(f.path).name, f.line)
               for f in run_analysis([directory], select=["TRX2"])]
    assert flagged == [("TRX201", "caller.py", 12)]


def test_only_the_block_open_log_reads_uncharged_columns() -> None:
    # peek_columns() is charged by the log's replay, so the log's own
    # call is clean; any other caller — an owner module included —
    # decodes uncharged, and reading through the log does not.
    directory = str(FIXTURES / "interproc_replay")
    flagged = [(f.rule, Path(f.path).name, f.line)
               for f in run_analysis([directory], select=["TRX2"])]
    assert flagged == [("TRX201", "log.py", 11), ("TRX201", "reader.py", 10)]


# ----------------------------------------------------------------------
# TRX8xx — resource lifecycle
# ----------------------------------------------------------------------
def test_lifecycle_flags_leaks_and_staging_escapes() -> None:
    assert findings("lifecycle_bad.py", select=["TRX8"]) == [
        ("TRX801", 6),    # backend leaks when write()/sync() raises
        ("TRX802", 13),   # raw handle never closed
        ("TRX803", 23),   # staging path returned to the caller
    ]


def test_lifecycle_accepts_with_finally_and_ownership_transfer() -> None:
    assert findings("lifecycle_good.py", select=["TRX8"]) == []


# ----------------------------------------------------------------------
# TRX9xx — protocol conformance
# ----------------------------------------------------------------------
def test_union_dispatch_must_cover_every_member() -> None:
    assert findings("protocol_bad.py", select=["TRX901"]) == [
        ("TRX901", 23),   # DropNote missing from the isinstance chain
    ]
    assert findings("protocol_good.py", select=["TRX901"]) == []


def test_mutators_must_be_reached_from_write_side_contexts() -> None:
    assert findings("mutator_bad.py", select=["TRX902"]) == [
        ("TRX902", 16),   # no lock at all
        ("TRX902", 20),   # read side of the state lock
    ]
    assert findings("mutator_good.py", select=["TRX902"]) == []


def test_serving_handlers_emit_telemetry_on_every_exit() -> None:
    assert findings("handler_bad.py", select=["TRX903"]) == [
        ("TRX903", 9),    # guard-clause raise before any telemetry
    ]
    assert findings("handler_good.py", select=["TRX903"]) == []


# ----------------------------------------------------------------------
# Driver mechanics
# ----------------------------------------------------------------------
def test_every_registered_rule_has_a_fixture_covering_it() -> None:
    covered: set[str] = set()
    for fixture in sorted(FIXTURES.glob("*.py")):
        covered.update(rule for rule, _ in findings(fixture.name))
    # Every rule must fire at least once across the bad fixtures.
    assert covered == set(RULES)


def test_unknown_selector_is_a_usage_error() -> None:
    with pytest.raises(AnalysisError):
        run_analysis([str(FIXTURES / "lock_bad.py")], select=["TRX999"])


def test_missing_path_is_a_usage_error() -> None:
    with pytest.raises(AnalysisError):
        run_analysis([str(FIXTURES / "does_not_exist.py")])

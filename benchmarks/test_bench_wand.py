"""WAND vs ERA/TA/Merge on the Fig-4/5/6 workloads: the who-wins map.

Windowed block-max WAND is a forced strategy; this bench pins
where it wins and where it loses across the paper's workload classes,
in both cost lanes, and holds ``auto`` to the fastest forced strategy
in seconds:

* **Simulated-cost lane** — :func:`repro.bench.figure_series` (which
  carries a WAND k-series) on each Fig-4/5/6 query.  Simulated costs
  are deterministic, so every number is pinned *exactly* to
  ``baseline_wand.json`` together with the per-k winner and the k-range
  where WAND is the outright winner.  The claim: WAND is strictly
  cheaper than the best of TA and Merge on at least one workload class,
  with the crossover k documented (on the bench corpus: WAND wins Q260
  at every k, reading Merge's ranges but heaping only what reaches θ
  while TA drowns in heap traffic; on Q202 it wins up to k=25 and Merge
  takes over by k=50, where a large k has WAND heaping most of what
  Merge merely sorts).
  The crossover is a fact of the cost units only: ``auto`` reads the
  stored index (an ERPL is Merge's, an RPL is TA's), never this map.
* **Wall-clock lane** — the PR 7 harness applied at strategy level:
  repeated evaluations of the flagship crossover workload, the
  strategies taking turns call by call (so drift on a shared runner
  hits them all alike), queries/sec recorded as reference points
  (generous tolerance — CI machines vary) plus floors, each a ratio
  inside one run of a loop over the reference loop it replaced, kept
  verbatim under ``tests/retrieval/``.  *ERA over its reference sweep*
  guards the per-extent walk and the replayed block opens against the
  per-position sweep (``test_era_reference.py``); *Merge over its
  reference loop* guards the bulk per-range read and the replayed block
  opens against the term-frontier loop it replaced
  (``test_merge_reference.py``).  Each side runs at the request's k, as
  the engine calls it: Merge builds k hits, its reference loop every
  hit.  Two ceilings follow: forced WAND on the flagship stays within
  1.25x of Merge's seconds, because it reads Merge's ranges through
  Merge's reader (the pivot loop it replaced took 2.3x); and nexi-mode
  Merge on the flagship stays within 1.5x of flat Merge, because a
  one-clause query is one retrieval task and skips the combination
  step (measured by this file: 4.2x slower when every clause hit was
  copied, tagged and re-sorted there; 0.95-0.97x since).
  The two lanes agree on Q260 k=10 now: WAND and Merge within 5 % in
  seconds and WAND ahead in cost, TA next, ERA last (EXPERIMENTS.md
  E13 — the units are ROADMAP item 2's to refit).
* **Regret lane** — ``auto`` against the fastest forced strategy, cell
  by cell, with universal lists resident: the 15 IEEE cells (five
  queries × k ∈ {1, 10, 100}) in nexi mode and all 21 cells (the two
  Wikipedia queries added) in flat mode.  The five methods take turns
  call by call and each keeps its best of five; ``auto``'s total must
  stay within 1.15x of the sum of the per-cell minima in each mode
  (the k thresholds ``auto`` once read put it at 1.9-2.3x).

Regenerate after an intentional change with
``PYTHONPATH=src python benchmarks/test_bench_wand.py``.
"""

import functools
import json
import os
import sys
import time

import pytest
from conftest import record_report

from repro.bench import PAPER_QUERIES, bench_engine, figure_series, format_rows
from repro.retrieval import era_raw, merge_retrieve

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
from tests.retrieval import test_era_reference as era_reference  # noqa: E402
from tests.retrieval import test_merge_reference as merge_reference  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "baseline_wand.json")

#: Workload classes from the paper's figures: (query id, collection).
MIXES = {
    "fig4": ((202, "ieee"), (203, "ieee")),
    "fig5": ((260, "ieee"), (270, "ieee")),
    "fig6": ((290, "wiki"), (292, "wiki")),
}
KS = (1, 5, 10, 25, 50, 100)

#: Wall-clock flagship: the workload class where WAND wins the cost
#: lane outright.  The floors are ratios inside one run, so a slow or
#: shared runner moves both sides: ERA over its reference sweep is what
#: the per-extent walk and the replayed opens bought, Merge over its
#: reference loop what the bulk per-range read did (3-4x).  WAND's is a
#: ceiling: it reads Merge's ranges, so it stays within 1.25x of Merge's
#: seconds.  ``ta_over_era`` is recorded, not floored: its denominator
#: is the loop the ERA floor is about.
_WALLCLOCK_QID = 260
#: The class whose who-wins map crosses over from WAND to Merge.
_CROSSOVER_QID = 202
_WALLCLOCK_K = 10
_WALLCLOCK_MIN_ERA_OVER_REFERENCE = 1.3
_WALLCLOCK_MIN_OVER_REFERENCE = {"merge": 1.6}
_WALLCLOCK_MAX_WAND_OVER_MERGE = 1.25
_WALLCLOCK_MAX_FLAT_OVER_NEXI = 1.5
_MIN_REFERENCE_FRACTION = 0.05
_ROUNDS = 25

#: Regret lane: per mode, the (query id, k) cells ``auto`` is timed on.
_REGRET_CELLS = {
    "nexi": [(qid, k) for qid in (202, 203, 233, 260, 270)
             for k in (1, 10, 100)],
    "flat": [(qid, k) for qid in (202, 203, 233, 260, 270, 290, 292)
             for k in (1, 10, 100)],
}
_REGRET_ROUNDS = 5
_MAX_AUTO_REGRET = 1.15


def _winner(era, merge, ta, wand):
    costs = {"era": era, "merge": merge, "ta": ta, "wand": wand}
    return min(sorted(costs), key=lambda name: costs[name])


def measure_costs(engines):
    """One row per paper query: the four strategies' simulated costs
    across k, the per-k winner, and WAND's outright-win range."""
    rows = []
    for mix, workloads in MIXES.items():
        for qid, collection in workloads:
            engine = engines[collection]
            series = figure_series(engine, PAPER_QUERIES[qid], k_values=KS)
            winners = [_winner(series["era"], series["merge"],
                               series["ta"][i], series["wand"][i])
                       for i in range(len(KS))]
            wand_wins = [k for i, k in enumerate(KS)
                         if series["wand"][i] < min(series["ta"][i],
                                                    series["merge"],
                                                    series["era"])]
            rows.append({
                "qid": qid,
                "mix": mix,
                "collection": collection,
                "k_values": list(KS),
                "era": round(series["era"], 1),
                "merge": round(series["merge"], 1),
                "ta": [round(cost, 1) for cost in series["ta"]],
                "wand": [round(cost, 1) for cost in series["wand"]],
                "pivot_advances": series["wand_pivot_advances"],
                "docs_evaluated": series["wand_docs_evaluated"],
                "answers": series["answers"],
                "winners": winners,
                "wand_wins": wand_wins,
            })
    return rows


def _interleaved_qps(runners, rounds):
    """Queries/sec per runner from its fastest call (min-of-N timing
    filters scheduler noise), the runners taking turns call by call."""
    fastest = dict.fromkeys(runners, float("inf"))
    for _ in range(rounds):
        for name, run in runners.items():
            started = time.perf_counter()
            run()
            fastest[name] = min(fastest[name],
                                time.perf_counter() - started)
    return {name: 1.0 / seconds for name, seconds in fastest.items()}


def measure_wallclock(engines):
    """Strategy-level wall-clock on the flagship crossover workload:
    the four strategies through ``engine.evaluate`` in flat mode and
    Merge in nexi mode, then ERA and Merge called directly beside their
    reference loops."""
    paper_query = PAPER_QUERIES[_WALLCLOCK_QID]
    engine = engines[paper_query.collection]
    nexi, k = paper_query.nexi, _WALLCLOCK_K
    engine.materialize_for_query(nexi, kinds=("rpl", "erpl"),
                                 scope="universal")
    runners = {method: (lambda method=method: engine.evaluate(
        nexi, k=k, method=method, mode="flat"))
        for method in ("era", "wand", "ta", "merge")}
    runners["merge_nexi"] = lambda: engine.evaluate(nexi, k=k,
                                                    method="merge")
    qps = _interleaved_qps(runners, _ROUNDS)
    row = {"qid": _WALLCLOCK_QID, "k": k}
    row.update({f"{method}_qps": round(value, 1)
                for method, value in qps.items()})
    row["wand_over_ta"] = round(qps["wand"] / qps["ta"], 2)
    row["ta_over_era"] = round(qps["ta"] / qps["era"], 2)
    row["merge_flat_over_nexi"] = round(qps["merge"] / qps["merge_nexi"], 2)
    row["wand_seconds_over_merge"] = round(qps["merge"] / qps["wand"], 2)

    clause = engine.translate(nexi).flat_clause()
    segments = engine.segments_for(clause, "erpl")
    model = engine.cost_model.resolve()
    weights = dict(clause.term_weights)
    merge_args = (engine.catalog, segments, clause.sids, model, weights)
    era_args = (engine.blocked_elements, engine.blocked_postings,
                sorted(clause.sids), list(clause.terms), model)
    qps = _interleaved_qps({
        "era": lambda: era_raw(*era_args),
        "era_reference": lambda: era_reference.reference_era_raw(*era_args),
        "merge": lambda: merge_retrieve(*merge_args, k=k),
        "merge_reference": lambda: merge_reference.reference_merge_retrieve(
            *merge_args),
    }, 2 * _ROUNDS)  # the floors sit nearest their ratios: more samples
    for method in ("era", "merge"):
        row[f"{method}_over_reference"] = round(
            qps[method] / qps[f"{method}_reference"], 2)
    return row


def measure_regret(engines):
    """Seconds of ``auto`` against each cell's fastest forced strategy,
    per mode, with every query's universal RPLs and ERPLs resident."""
    for qid in sorted({qid for cells in _REGRET_CELLS.values()
                       for qid, _k in cells}):
        query = PAPER_QUERIES[qid]
        engines[query.collection].materialize_for_query(
            query.nexi, kinds=("rpl", "erpl"), scope="universal")
    row = {}
    for mode, cells in _REGRET_CELLS.items():
        auto = fastest = 0.0
        for qid, k in cells:
            query = PAPER_QUERIES[qid]
            engine = engines[query.collection]
            qps = _interleaved_qps({
                method: functools.partial(engine.evaluate, query.nexi, k=k,
                                          method=method, mode=mode)
                for method in ("era", "ta", "merge", "wand", "auto")},
                _REGRET_ROUNDS)
            auto += 1.0 / qps.pop("auto")
            fastest += 1.0 / max(qps.values())
        row[f"{mode}_auto_ms"] = round(auto * 1e3, 1)
        row[f"{mode}_fastest_ms"] = round(fastest * 1e3, 1)
        row[f"{mode}_regret"] = round(auto / fastest, 2)
    return row


@pytest.fixture(scope="module")
def engines():
    """Fresh engines, shadowing the shared session fixture: the cost
    lane is pinned *exactly*, so the page caches must start cold here
    no matter which other benchmark files ran first.  ``bench_engine``
    is lru_cached process-wide (the session fixtures share its
    entries), hence ``__wrapped__`` to force a cold build — the same
    state the ``__main__`` regeneration below measures from."""
    return {name: bench_engine.__wrapped__(name) for name in ("ieee", "wiki")}


@pytest.fixture(scope="module")
def baseline():
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def cost_rows(engines):
    rows = measure_costs(engines)
    record_report(
        "WAND vs ERA/TA/Merge — who wins where (simulated cost)",
        format_rows([{key: row[key] for key in
                      ("qid", "mix", "era", "merge", "winners",
                       "wand_wins")} for row in rows]))
    return {row["qid"]: row for row in rows}


@pytest.fixture(scope="module")
def wallclock_row(engines):
    return measure_wallclock(engines)


@pytest.fixture(scope="module")
def regret_row(engines):
    row = measure_regret(engines)
    record_report("auto against the fastest forced strategy (ms, best of "
                  f"{_REGRET_ROUNDS})", format_rows([row]))
    return row


@pytest.mark.parametrize("qid", [qid for workloads in MIXES.values()
                                 for qid, _ in workloads])
def test_cost_lane_is_pinned_exactly(qid, cost_rows, baseline):
    got = cost_rows[qid]
    want = baseline["cost"][str(qid)]
    assert got == want, (
        f"q{qid} cost lane diverged from baseline_wand.json; if "
        "intentional, regenerate with `PYTHONPATH=src python "
        "benchmarks/test_bench_wand.py`")


def test_wand_strictly_wins_a_workload_class(cost_rows):
    # The acceptance claim: at least one Fig-4/5/6 workload class has a
    # k where WAND beats the best of TA and Merge outright.
    assert any(row["wand_wins"] for row in cost_rows.values())
    flagship = cost_rows[_WALLCLOCK_QID]
    assert flagship["wand_wins"], (
        "Q260 (fig5) lost its WAND win range — the crossover class "
        "this bench documents")
    for i, k in enumerate(flagship["k_values"]):
        if k in flagship["wand_wins"]:
            assert flagship["wand"][i] < min(flagship["ta"][i],
                                             flagship["merge"])


def test_crossover_point_is_documented(cost_rows):
    # WAND's advantage must *flip* somewhere: the cost lane's who-wins
    # map has a crossover to Merge at large k.  Reading Merge's ranges,
    # WAND wins the flagship at every k (its margin narrowing as k
    # grows); the crossover is on the fig4 class, Q202.  It is a fact of
    # the cost units; ``auto`` does not read it.
    crossover = cost_rows[_CROSSOVER_QID]
    assert crossover["wand_wins"]
    assert max(crossover["wand_wins"]) < max(crossover["k_values"]), (
        f"WAND wins at every measured k on Q{_CROSSOVER_QID} — the "
        "documented crossover to Merge at large k disappeared")
    assert crossover["winners"][-1] != "wand"


def test_wand_pivots_on_the_flagship_workload(cost_rows):
    flagship = cost_rows[_WALLCLOCK_QID]
    # ``pivot_advances`` counts skipped windows; a skipped window's
    # answers are never scored.
    assert all(count > 0 for count in flagship["pivot_advances"])
    assert all(evaluated < flagship["answers"]
               for evaluated in flagship["docs_evaluated"])


def test_wallclock_era_beats_its_reference_sweep(wallclock_row):
    record_report(
        "WAND wall-clock lane (queries/sec, Q260 k=10)",
        format_rows([wallclock_row]))
    ratio = wallclock_row["era_over_reference"]
    assert ratio >= _WALLCLOCK_MIN_ERA_OVER_REFERENCE, (
        f"ERA is only {ratio}x its reference sweep wall-clock on Q260 "
        f"k={_WALLCLOCK_K} (floor {_WALLCLOCK_MIN_ERA_OVER_REFERENCE}x): "
        "is it testing every position against every sid again, or "
        "opening blocks one probe at a time?")


@pytest.mark.parametrize("method", ["merge"])
def test_wallclock_document_order_beats_its_reference_loop(method,
                                                           wallclock_row):
    ratio = wallclock_row[f"{method}_over_reference"]
    floor = _WALLCLOCK_MIN_OVER_REFERENCE[method]
    assert ratio >= floor, (
        f"{method} is only {ratio}x its reference loop wall-clock on "
        f"Q260 k={_WALLCLOCK_K} (floor {floor}x): is Merge stepping a "
        "cursor per row again?")


def test_wallclock_wand_keeps_merge_speed(wallclock_row):
    ratio = wallclock_row["wand_seconds_over_merge"]
    assert ratio <= _WALLCLOCK_MAX_WAND_OVER_MERGE, (
        f"forced WAND takes {ratio}x Merge's wall-clock on "
        f"Q{_WALLCLOCK_QID} k={_WALLCLOCK_K} flat (ceiling "
        f"{_WALLCLOCK_MAX_WAND_OVER_MERGE}x): does it step a cursor per "
        "element again instead of reading Merge's ranges?")


def test_wallclock_nexi_merge_keeps_flat_speed(wallclock_row):
    ratio = wallclock_row["merge_flat_over_nexi"]
    assert ratio <= _WALLCLOCK_MAX_FLAT_OVER_NEXI, (
        f"flat Merge is {ratio}x nexi-mode Merge wall-clock on "
        f"Q{_WALLCLOCK_QID} k={_WALLCLOCK_K} (ceiling "
        f"{_WALLCLOCK_MAX_FLAT_OVER_NEXI}x): does a one-clause query go "
        "through the combination step again, or build every clause hit?")


def test_wallclock_within_reference_tolerance(wallclock_row, baseline):
    # Generous: only an order-of-magnitude collapse fails this.
    floor = baseline["wallclock"]["wand_qps"] * _MIN_REFERENCE_FRACTION
    assert wallclock_row["wand_qps"] >= floor, (
        f"WAND wall-clock {wallclock_row['wand_qps']}/s fell below "
        f"{_MIN_REFERENCE_FRACTION:.0%} of the recorded reference "
        f"{baseline['wallclock']['wand_qps']}/s")


@pytest.mark.parametrize("mode", sorted(_REGRET_CELLS))
def test_auto_regret_stays_under_its_floor(mode, regret_row):
    ratio = regret_row[f"{mode}_regret"]
    assert ratio <= _MAX_AUTO_REGRET, (
        f"auto takes {ratio}x the fastest forced strategy over the "
        f"{len(_REGRET_CELLS[mode])} {mode}-mode cells (ceiling "
        f"{_MAX_AUTO_REGRET}x): does it choose by k again instead of by "
        "the stored index?")


if __name__ == "__main__":
    built = {name: bench_engine.__wrapped__(name) for name in ("ieee", "wiki")}
    rows = measure_costs(built)
    payload = {
        "cost": {str(row["qid"]): row for row in rows},
        "wallclock": measure_wallclock(built),
    }
    with open(BASELINE_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {BASELINE_PATH}")
    print(json.dumps(payload, indent=2))

"""WAND vs ERA/TA/Merge on the Fig-4/5/6 workloads: the who-wins map.

Document-at-a-time Block-Max-WAND joins the strategy menu; this bench
pins where it wins and where it loses across the paper's workload
classes, in both cost lanes:

* **Simulated-cost lane** — :func:`repro.bench.figure_series` (which
  now carries a WAND k-series) on each Fig-4/5/6 query.  Simulated
  costs are deterministic, so every number is pinned *exactly* to
  ``baseline_wand.json`` together with the per-k winner and the k-range
  where WAND is the outright winner.  The acceptance claim: WAND is
  strictly cheaper than the best of TA and Merge on at least one
  workload class, with the crossover k documented (on the bench corpus:
  Q260, WAND wins up to k=50, Merge takes over by k=100 — pivoting
  skips most of the 3579-answer stream while TA drowns in heap
  traffic, until a large k forces WAND to evaluate nearly everything
  Merge would stream anyway).
* **Wall-clock lane** — the PR 7 harness applied at strategy level:
  repeated ``engine.evaluate`` calls on the flagship crossover
  workload, queries/sec recorded as reference points (generous
  tolerance — CI machines vary) plus a floor on the TA/Merge ratio
  inside one run.  The two lanes disagree on Q260: ``TopKHeap`` charges
  an offer below its floor without pushing it, so TA's heap costs cost
  units, not seconds, and TA is the wall-clock winner where WAND wins
  the cost lane (EXPERIMENTS.md E13; the heap unit is ROADMAP item 3's
  to refit).

Regenerate after an intentional change with
``PYTHONPATH=src python benchmarks/test_bench_wand.py``.
"""

import json
import os
import time

import pytest
from conftest import record_report

from repro.bench import PAPER_QUERIES, bench_engine, figure_series, format_rows

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "baseline_wand.json")

#: Workload classes from the paper's figures: (query id, collection).
MIXES = {
    "fig4": ((202, "ieee"), (203, "ieee")),
    "fig5": ((260, "ieee"), (270, "ieee")),
    "fig6": ((290, "wiki"), (292, "wiki")),
}
KS = (1, 5, 10, 25, 50, 100)

#: Wall-clock flagship: the workload class where WAND wins the cost
#: lane outright.  The floor is TA over Merge — what floor admission in
#: ``TopKHeap`` bought (1.1x before it, 2.2x after) — a ratio inside
#: one run, so a slow or shared runner moves both sides.
_WALLCLOCK_QID = 260
_WALLCLOCK_K = 10
_WALLCLOCK_MIN_TA_OVER_MERGE = 1.5
_MIN_REFERENCE_FRACTION = 0.05
_TARGET_SECONDS = 0.4
_WINDOWS = 3


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


def _qps(engine, nexi, k, method):
    """Best queries/sec across several measurement windows (taking the
    best window filters scheduler noise the way min-of-N timing does)."""
    engine.evaluate(nexi, k=k, method=method, mode="flat")  # warm
    best = 0.0
    for _ in range(_WINDOWS):
        passes = 0
        started = time.perf_counter()
        while True:
            engine.evaluate(nexi, k=k, method=method, mode="flat")
            passes += 1
            elapsed = time.perf_counter() - started
            if elapsed >= _TARGET_SECONDS:
                break
        best = max(best, passes / elapsed)
    return best


def measure_wallclock(engines):
    """Strategy-level wall-clock on the flagship crossover workload."""
    paper_query = PAPER_QUERIES[_WALLCLOCK_QID]
    engine = engines[paper_query.collection]
    engine.materialize_for_query(paper_query.nexi, kinds=("rpl", "erpl"),
                                 scope="universal")
    row = {"qid": _WALLCLOCK_QID, "k": _WALLCLOCK_K}
    for method in ("wand", "ta", "merge"):
        row[f"{method}_qps"] = round(
            _qps(engine, paper_query.nexi, _WALLCLOCK_K, method), 1)
    row["wand_over_ta"] = round(row["wand_qps"] / row["ta_qps"], 2)
    row["ta_over_merge"] = round(row["ta_qps"] / row["merge_qps"], 2)
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
    # WAND's advantage must *flip* somewhere on the flagship workload:
    # a who-wins map with no crossover would not justify a fourth
    # strategy in the auto-selection menu.
    flagship = cost_rows[_WALLCLOCK_QID]
    assert flagship["wand_wins"]
    assert max(flagship["wand_wins"]) < max(flagship["k_values"]), (
        "WAND wins at every measured k on Q260 — the documented "
        "crossover to Merge at large k disappeared")
    assert flagship["winners"][-1] != "wand"


def test_wand_pivots_on_the_flagship_workload(cost_rows):
    flagship = cost_rows[_WALLCLOCK_QID]
    assert all(count > 0 for count in flagship["pivot_advances"])
    # Pivoting means most of the 3579 answers are never evaluated.
    assert all(evaluated < flagship["answers"]
               for evaluated in flagship["docs_evaluated"])


def test_wallclock_ta_beats_merge_on_crossover_workload(wallclock_row,
                                                        engines):
    record_report(
        "WAND wall-clock lane (queries/sec, Q260 k=10)",
        format_rows([wallclock_row]))
    assert wallclock_row["ta_over_merge"] >= _WALLCLOCK_MIN_TA_OVER_MERGE, (
        f"TA is only {wallclock_row['ta_over_merge']}x Merge wall-clock "
        f"on Q260 k={_WALLCLOCK_K} "
        f"(floor {_WALLCLOCK_MIN_TA_OVER_MERGE}x): is the heap "
        "performing its charged push-evict round trips again?")


def test_wallclock_within_reference_tolerance(wallclock_row, baseline):
    # Generous: only an order-of-magnitude collapse fails this.
    floor = baseline["wallclock"]["wand_qps"] * _MIN_REFERENCE_FRACTION
    assert wallclock_row["wand_qps"] >= floor, (
        f"WAND wall-clock {wallclock_row['wand_qps']}/s fell below "
        f"{_MIN_REFERENCE_FRACTION:.0%} of the recorded reference "
        f"{baseline['wallclock']['wand_qps']}/s")


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

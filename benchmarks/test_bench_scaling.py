"""Ablation — corpus-size scaling of the three strategies.

Not a paper figure, but the mechanism behind all of them: ERA's cost
grows with the *corpus* (it scans every posting of the query terms),
while Merge grows with the *answer set* (it reads only the per-(term,
sid) ranges).  Sweeping the synthetic corpus size makes the divergence
visible and asserts its direction.
"""

from conftest import record_report

from repro.bench import format_rows
from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.retrieval import TrexEngine
from repro.summary import IncomingSummary

QUERY = "//article//sec[about(., introduction information retrieval)]"


def test_strategy_scaling(benchmark):
    def run():
        rows = []
        for num_docs in (20, 40, 80):
            collection = SyntheticIEEECorpus(num_docs=num_docs, seed=29).build()
            summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
            engine = TrexEngine(collection, summary)
            engine.materialize_for_query(QUERY)  # Merge's ERPLs, TA's RPLs
            era = engine.evaluate(QUERY, k=None, method="era", mode="flat")
            merge = engine.evaluate(QUERY, k=None, method="merge", mode="flat")
            ta = engine.evaluate(QUERY, k=10, method="ta", mode="flat")
            rows.append({
                "docs": num_docs,
                "answers": len(era.hits),
                "era": round(era.stats.cost, 1),
                "merge": round(merge.stats.cost, 1),
                "ta_k10": round(ta.stats.cost, 1),
                "era/merge": round(era.stats.cost / merge.stats.cost, 2),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report("Ablation: strategy cost vs corpus size", format_rows(rows))

    # Every method's cost grows with the corpus...
    for column in ("era", "merge", "ta_k10"):
        series = [row[column] for row in rows]
        assert series == sorted(series), column
    # ...but ERA grows at least as fast as Merge in relative terms:
    # the ERA/Merge advantage never shrinks materially with scale.
    ratios = [row["era/merge"] for row in rows]
    assert ratios[-1] > ratios[0] * 0.8
    # Merge stays an order of magnitude under ERA at every scale.
    for row in rows:
        assert row["merge"] < row["era"] / 5


# ----------------------------------------------------------------------
# Shard-count sweep: cost vs N, answers pinned to the oracle and the
# per-N cost profile pinned to a committed baseline.
# ----------------------------------------------------------------------

import json
import os

from repro.shard import ShardedEngine

SHARDS_BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                                    "baseline_shards.json")
SHARD_QUERY = "//article//sec[about(., introduction information retrieval)]"
SHARD_COUNTS = (1, 2, 4)
SHARD_K = 10


def shard_fixture():
    collection = SyntheticIEEECorpus(num_docs=24, seed=77).build()
    alias = AliasMapping.inex_ieee()
    return collection, alias


def compute_shard_sweep():
    collection, alias = shard_fixture()
    oracle = TrexEngine(collection,
                        IncomingSummary(collection, alias=alias))
    want = [(hit.element_key(), round(hit.score, 9))
            for hit in oracle.evaluate(SHARD_QUERY, k=SHARD_K, method="era",
                                       mode="flat").hits]
    rows = []
    for num_shards in SHARD_COUNTS:
        engine = ShardedEngine(collection, num_shards, alias=alias)
        engine.warm_segments(engine.missing_segments(
            engine.translate(SHARD_QUERY), ("rpl",), mode="flat"))
        result = engine.evaluate(SHARD_QUERY, k=SHARD_K, method="ta",
                                 mode="flat")
        got = [(hit.element_key(), round(hit.score, 9))
               for hit in result.hits]
        assert got == want, f"golden divergence at {num_shards} shards"
        stats = result.stats
        rows.append({
            "shards": num_shards,
            "cost": round(stats.cost, 1),
            "entries_decoded": stats.entries_decoded,
            "shards_pruned": stats.shards_pruned,
        })
    return rows


def test_shard_count_sweep(benchmark):
    rows = benchmark.pedantic(compute_shard_sweep, rounds=1, iterations=1)
    record_report("Sharding: distributed TA cost vs shard count "
                  f"(k={SHARD_K})", format_rows(rows))
    with open(SHARDS_BASELINE_PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)
    assert rows == baseline["sweep"], (
        f"shard sweep drifted: expected {baseline['sweep']}, got {rows} — "
        "if intentional, regenerate benchmarks/baseline_shards.json "
        "(python benchmarks/test_bench_scaling.py)")


if __name__ == "__main__":
    # Regenerate the committed baseline after an intentional change.
    payload = {
        "sweep": compute_shard_sweep(),
        # Reference profile before the coordinator refreshed the global
        # k-th floor on *every* dispatch (it used to refresh only before
        # a run's first dispatch).  The tightened floor is what feeds
        # WAND's θ; distributed TA pays only the
        # extra _global_floor comparison charges for it — decode work
        # and pruning are unchanged on this workload.
        "pre_floor_refresh_reference": [
            {"shards": 1, "cost": 5823.9},
            {"shards": 2, "cost": 6452.0},
            {"shards": 4, "cost": 6277.9},
        ],
    }
    with open(SHARDS_BASELINE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {SHARDS_BASELINE_PATH}")

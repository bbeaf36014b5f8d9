"""Build-path benchmarks: batched materialization and LSM ingest.

Two claims of the builder (ERA over the base indexes) made measurable:

1. **Pass collapse** — warming every segment the Fig-4 workload wants
   costs ONE shared ERA pass (one per 32 distinct terms in general)
   where the per-target path pays one pass per target.
2. **Ingest keeps its bases** — ``add_document`` appends delta runs;
   base runs survive byte-identical until compaction folds them, and
   rankings are stable across the whole ingest→query→compact cycle.

Deterministic build shapes (target counts, scan counts, entry/byte
totals) are pinned to ``baseline_build.json``; wall-clock numbers are
reported but never pinned.  Regenerate after an intentional change with
``PYTHONPATH=src python benchmarks/test_bench_build.py``.
"""

import json
import os
import time

from conftest import record_report

from repro.bench import PAPER_QUERIES, format_rows
from repro.build import BuildPlanner
from repro.build.batch import TERM_CHUNK
from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.retrieval import TrexEngine
from repro.shard import ShardedEngine
from repro.summary import IncomingSummary

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "baseline_build.json")

WARM_DOCS, WARM_SEED = 120, 59
COLD_DOCS, COLD_SEED = 30, 59
INGEST_DOCS, INGEST_SEED = 30, 61

FIG4_QUERIES = (PAPER_QUERIES[202].nexi, PAPER_QUERIES[203].nexi)
WORKLOAD_QUERIES = tuple(q.nexi for q in PAPER_QUERIES.values()
                         if q.collection == "ieee")

EXTRA_DOCUMENTS = (
    "<article><sec>ontologies case study of ontologies</sec></article>",
    "<article><sec>code signing verification pipeline</sec></article>",
    "<article><sec>a case study in code verification</sec>"
    "<sec>ontologies</sec></article>",
    "<article><sec>signing ontologies</sec></article>",
    "<article><sec>study of code signing</sec></article>",
    "<article><sec>verification case</sec></article>",
)

_FIXTURES = {}


def fixture(num_docs, seed):
    """A (collection, summary) pair, cached per shape within the run."""
    key = (num_docs, seed)
    if key not in _FIXTURES:
        collection = SyntheticIEEECorpus(num_docs=num_docs,
                                         seed=seed).build()
        _FIXTURES[key] = (collection,
                          IncomingSummary(collection,
                                          alias=AliasMapping.inex_ieee()))
    return _FIXTURES[key]


def make_engine(num_docs, seed):
    collection, summary = fixture(num_docs, seed)
    return TrexEngine(collection, summary)


def workload_plan(engine, queries):
    planner = BuildPlanner()
    for query in queries:
        for target in engine.plan_for_query(query):
            planner.add_target(target)
    return planner.plan()


def catalog_image(engine):
    """Byte image of every run in the catalog, keyed independently of
    install order."""
    return {
        (segment.kind, segment.term,
         None if segment.scope is None else tuple(sorted(segment.scope))):
            engine.catalog.blocks_for(segment).to_bytes()
        for segment in engine.catalog.segments()
    }


def ranking(result):
    return [(hit.element_key(), round(hit.score, 9)) for hit in result.hits]


def load_baseline():
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# 1. Fig-4 workload: one shared ERA pass replaces one pass per target.
# ----------------------------------------------------------------------
def compute_fig4_shape():
    engine = make_engine(WARM_DOCS, WARM_SEED)
    plan = workload_plan(engine, FIG4_QUERIES)
    report, _installed = engine.build_plan(plan)
    return {
        "targets": len(plan),
        "sid_sets": len(plan.sid_sets()),
        "collection_scans": report.collection_scans,
        "entries": report.entries,
        "bytes_built": report.bytes_built,
    }


def test_fig4_workload_single_scan():
    shape = compute_fig4_shape()
    # The acceptance bar: at most one Elements-extent pass per distinct
    # sid-set — the builder does strictly better (one ERA pass total).
    assert shape["collection_scans"] == 1
    assert shape["collection_scans"] <= shape["sid_sets"]
    baseline = load_baseline()
    assert shape == baseline["fig4"], (
        f"Fig-4 build shape drifted: expected {baseline['fig4']}, got "
        f"{shape} — if intentional, regenerate "
        "benchmarks/baseline_build.json "
        "(PYTHONPATH=src python benchmarks/test_bench_build.py)")


# ----------------------------------------------------------------------
# 2. Warm-up sweep: one ERA pass per target vs one shared pass.
# ----------------------------------------------------------------------
def run_warm_sweep():
    engine = make_engine(WARM_DOCS, WARM_SEED)
    plan = workload_plan(engine, WORKLOAD_QUERIES)
    started = time.perf_counter()
    for target in plan:  # the unbatched baseline: one build per target
        engine.build_segments([target])
    per_term_seconds = time.perf_counter() - started
    reference = catalog_image(engine)
    rows = [{"path": "per-target", "scans": len(plan),
             "seconds": round(per_term_seconds, 3), "speedup": 1.0}]

    other = make_engine(WARM_DOCS, WARM_SEED)
    started = time.perf_counter()
    report = other.build_segments(workload_plan(other, WORKLOAD_QUERIES))
    batched_seconds = time.perf_counter() - started
    assert catalog_image(other) == reference, \
        "the shared pass changed segment bytes"
    rows.append({"path": "batched", "scans": report.collection_scans,
                 "seconds": round(batched_seconds, 3),
                 "speedup": round(per_term_seconds / batched_seconds, 2)})
    return plan, rows, per_term_seconds, batched_seconds, \
        report.collection_scans


def test_warm_workload_paths(benchmark):
    plan, rows, per_term_seconds, batched_seconds, batched_scans = \
        benchmark.pedantic(run_warm_sweep, rounds=1, iterations=1)
    record_report(
        f"Warm-up: {len(plan)} workload segments, per-target vs batched",
        format_rows(rows))

    assert batched_scans == 1
    # The shared pass sweeps the extents once instead of len(plan)
    # times; even on one core that is a wall-clock win.
    assert per_term_seconds / batched_seconds >= 1.2, (
        f"batched warm only {per_term_seconds / batched_seconds:.2f}x "
        f"faster than per-target")

    baseline = load_baseline()
    shape = {"targets": len(plan), "per_term_scans": len(plan),
             "batched_scans": batched_scans}
    assert shape == baseline["warm_workload"], (
        f"warm-workload shape drifted: expected "
        f"{baseline['warm_workload']}, got {shape}")


# ----------------------------------------------------------------------
# 3. Cold build: the full vocabulary, one ERA pass per 32 terms.
# ----------------------------------------------------------------------
def compute_cold_shape():
    engine = make_engine(COLD_DOCS, COLD_SEED)
    terms = engine.blocked_postings.keys()
    planner = BuildPlanner()
    for term in terms:
        planner.add("rpl", term)
        planner.add("erpl", term)
    report = engine.build_segments(planner.plan())
    return engine, terms, report


def test_cold_full_build(benchmark):
    def run():
        started = time.perf_counter()
        _engine, terms, report = compute_cold_shape()
        return terms, report, time.perf_counter() - started

    terms, report, serial_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1)
    record_report(
        f"Cold build: {len(terms)}-term vocabulary, "
        f"{COLD_DOCS}-doc corpus",
        format_rows([
            {"path": "batched", "scans": report.collection_scans,
             "segments": report.built, "entries": report.entries,
             "mb": round(report.bytes_built / 1e6, 2),
             "seconds": round(serial_seconds, 2)},
        ]))
    assert report.collection_scans == -(-len(terms) // TERM_CHUNK)

    baseline = load_baseline()
    shape = {"terms": len(terms), "targets": report.built,
             "entries": report.entries, "bytes_built": report.bytes_built}
    assert shape == baseline["cold"], (
        f"cold build shape drifted: expected {baseline['cold']}, got "
        f"{shape} — if intentional, regenerate "
        "benchmarks/baseline_build.json")


# ----------------------------------------------------------------------
# 4. LSM ingest: deltas append, bases survive, compaction folds.
# ----------------------------------------------------------------------
def test_ingest_then_query(benchmark):
    query = PAPER_QUERIES[202].nexi

    def run():
        collection = SyntheticIEEECorpus(num_docs=INGEST_DOCS,
                                         seed=INGEST_SEED).build()
        summary = IncomingSummary(collection,
                                  alias=AliasMapping.inex_ieee())
        engine = TrexEngine(collection, summary)
        engine.materialize_for_query(query)
        bases = {segment.segment_id:
                 engine.catalog.runs_for(segment)[0].to_bytes()
                 for segment in engine.catalog.segments()}

        started = time.perf_counter()
        fresh = ranking(engine.evaluate(query, k=10, method="ta"))
        query_before = time.perf_counter() - started

        started = time.perf_counter()
        for text in EXTRA_DOCUMENTS:
            engine.add_document(text)
        ingest_seconds = time.perf_counter() - started

        # LSM invariant: every pre-ingest base run is still byte-
        # identical; growth went exclusively into delta runs.
        bases_survived = all(
            engine.catalog.runs_for(
                engine.catalog.get_segment(segment_id))[0].to_bytes() ==
            image for segment_id, image in bases.items())
        snapshot = engine.catalog.delta_snapshot()

        started = time.perf_counter()
        merged = ranking(engine.evaluate(query, k=10, method="ta"))
        query_with_deltas = time.perf_counter() - started

        started = time.perf_counter()
        folded = ShardedEngine.from_engine(engine, 1).compact_segments(
            force=True)
        compact_seconds = time.perf_counter() - started

        started = time.perf_counter()
        compacted = ranking(engine.evaluate(query, k=10, method="ta"))
        query_compacted = time.perf_counter() - started
        return {
            "bases_survived": bases_survived,
            "snapshot": snapshot,
            "after_snapshot": engine.catalog.delta_snapshot(),
            "folded": folded,
            "fresh": fresh,
            "merged": merged,
            "compacted": compacted,
            "rows": [
                {"step": "query (warm)", "ms":
                 round(query_before * 1e3, 1)},
                {"step": f"ingest x{len(EXTRA_DOCUMENTS)}", "ms":
                 round(ingest_seconds * 1e3, 1)},
                {"step": "query (delta-merged)", "ms":
                 round(query_with_deltas * 1e3, 1)},
                {"step": "compact", "ms": round(compact_seconds * 1e3, 1)},
                {"step": "query (compacted)", "ms":
                 round(query_compacted * 1e3, 1)},
            ],
        }

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report(
        f"LSM ingest: Q202 over {INGEST_DOCS}+{len(EXTRA_DOCUMENTS)} docs",
        format_rows(outcome["rows"]))
    assert outcome["bases_survived"], "add_document rewrote a base run"
    snapshot = outcome["snapshot"]
    assert snapshot["delta_runs"] > 0
    assert snapshot["segments_with_deltas"] > 0
    assert outcome["folded"] == snapshot["segments_with_deltas"]
    after = outcome["after_snapshot"]
    assert after["delta_runs"] == 0
    assert after["delta_runs_folded"] >= snapshot["delta_runs"]
    # Ingested documents about the query's terms must surface, and
    # compaction must not move a single result.
    assert outcome["merged"] != outcome["fresh"]
    assert outcome["compacted"] == outcome["merged"]


def compute_baseline():
    fig4 = compute_fig4_shape()
    engine = make_engine(WARM_DOCS, WARM_SEED)
    plan = workload_plan(engine, WORKLOAD_QUERIES)
    warm = {"targets": len(plan), "per_term_scans": len(plan),
            "batched_scans": 1}
    _engine, terms, report = compute_cold_shape()
    cold = {"terms": len(terms), "targets": report.built,
            "entries": report.entries, "bytes_built": report.bytes_built}
    return {"fig4": fig4, "warm_workload": warm, "cold": cold}


if __name__ == "__main__":
    # Regenerate the committed baseline after an intentional change.
    with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
        json.dump(compute_baseline(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {BASELINE_PATH}")

"""Build-path benchmarks: batched materialization and LSM ingest.

Three perf claims of the batched builder (ISSUE 5) made measurable:

1. **Scan collapse** — warming every segment the Fig-4 workload wants
   costs ONE shared collection pass (at most one per distinct sid-set)
   where the seed's per-term path paid one ERA-style pass per target.
2. **Parallel warm-up** — a 4-worker process pool splits the plan into
   4 passes that run concurrently; on a ≥4-core host the warm is at
   least 2× faster than the per-term path (on smaller hosts the claim
   is recorded but not asserted — one core cannot show wall-clock
   parallelism).
3. **Ingest keeps its bases** — ``add_document`` appends delta runs;
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
from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.retrieval import TrexEngine
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
# 1. Fig-4 workload: one shared scan replaces one scan per target.
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
    # sid-set — the batched builder does strictly better (one total).
    assert shape["collection_scans"] == 1
    assert shape["collection_scans"] <= shape["sid_sets"]
    baseline = load_baseline()
    assert shape == baseline["fig4"], (
        f"Fig-4 build shape drifted: expected {baseline['fig4']}, got "
        f"{shape} — if intentional, regenerate "
        "benchmarks/baseline_build.json "
        "(PYTHONPATH=src python benchmarks/test_bench_build.py)")


# ----------------------------------------------------------------------
# 2. Warm-up sweep: per-term seed path vs batched vs process pool.
# ----------------------------------------------------------------------
def run_warm_sweep():
    engine = make_engine(WARM_DOCS, WARM_SEED)
    plan = workload_plan(engine, WORKLOAD_QUERIES)
    started = time.perf_counter()
    for target in plan:
        if target.kind == "rpl":
            engine.materialize_rpl(target.term, sids=target.scope)
        else:
            engine.materialize_erpl(target.term, sids=target.scope)
    per_term_seconds = time.perf_counter() - started
    reference = catalog_image(engine)
    rows = [{"path": "per-term (seed)", "scans": len(plan),
             "seconds": round(per_term_seconds, 3), "speedup": 1.0}]

    timings = {}
    for workers in (0, 2, 4):
        other = make_engine(WARM_DOCS, WARM_SEED)
        started = time.perf_counter()
        report = other.build_segments(workload_plan(other, WORKLOAD_QUERIES),
                                      workers=workers)
        seconds = time.perf_counter() - started
        assert catalog_image(other) == reference, \
            f"workers={workers} changed segment bytes"
        timings[workers] = (seconds, report.collection_scans)
        label = "batched" if workers == 0 else f"pool x{workers}"
        rows.append({"path": label, "scans": report.collection_scans,
                     "seconds": round(seconds, 3),
                     "speedup": round(per_term_seconds / seconds, 2)})
    return plan, rows, per_term_seconds, timings


def test_warm_workload_paths(benchmark):
    plan, rows, per_term_seconds, timings = benchmark.pedantic(
        run_warm_sweep, rounds=1, iterations=1)
    cores = os.cpu_count() or 1
    record_report(
        f"Warm-up: {len(plan)} workload segments, per-term vs batched vs "
        f"pool ({cores} cores)", format_rows(rows))

    batched_seconds, batched_scans = timings[0]
    assert batched_scans == 1
    assert timings[2][1] == 2
    assert timings[4][1] == 4
    # The batched pass reads the collection once instead of len(plan)
    # times; even on one core that is a wall-clock win.
    assert per_term_seconds / batched_seconds >= 1.2, (
        f"batched warm only {per_term_seconds / batched_seconds:.2f}x "
        f"faster than per-term")
    if cores >= 4:
        # The headline parallel claim needs real cores to show up in
        # wall-clock; scan counts above pin the work reduction always.
        assert per_term_seconds / timings[4][0] >= 2.0, (
            f"4-worker warm only "
            f"{per_term_seconds / timings[4][0]:.2f}x faster")

    baseline = load_baseline()
    shape = {"targets": len(plan), "per_term_scans": len(plan),
             "batched_scans": batched_scans, "parallel4_scans": timings[4][1]}
    assert shape == baseline["warm_workload"], (
        f"warm-workload shape drifted: expected "
        f"{baseline['warm_workload']}, got {shape}")


# ----------------------------------------------------------------------
# 3. Cold build: full vocabulary in one pass, pool byte-identical.
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
        engine, terms, report = compute_cold_shape()
        serial_seconds = time.perf_counter() - started

        parallel = make_engine(COLD_DOCS, COLD_SEED)
        planner = BuildPlanner()
        for term in terms:
            planner.add("rpl", term)
            planner.add("erpl", term)
        started = time.perf_counter()
        parallel_report = parallel.build_segments(planner.plan(), workers=4)
        parallel_seconds = time.perf_counter() - started
        assert catalog_image(parallel) == catalog_image(engine), \
            "parallel cold build changed segment bytes"
        return terms, report, parallel_report, serial_seconds, \
            parallel_seconds

    terms, report, parallel_report, serial_seconds, parallel_seconds = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    record_report(
        f"Cold build: {len(terms)}-term vocabulary, "
        f"{COLD_DOCS}-doc corpus",
        format_rows([
            {"path": "batched", "scans": report.collection_scans,
             "segments": report.built, "entries": report.entries,
             "mb": round(report.bytes_built / 1e6, 2),
             "seconds": round(serial_seconds, 2)},
            {"path": "pool x4", "scans": parallel_report.collection_scans,
             "segments": parallel_report.built,
             "entries": parallel_report.entries,
             "mb": round(parallel_report.bytes_built / 1e6, 2),
             "seconds": round(parallel_seconds, 2)},
        ]))
    assert report.collection_scans == 1
    assert parallel_report.collection_scans == 4

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
        folded = engine.compact_segments(force=True)
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
            "batched_scans": 1, "parallel4_scans": 4}
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

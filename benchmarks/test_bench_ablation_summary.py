"""Ablation — summary choice (DESIGN.md §5).

The paper's §2.1 claims TReX can exploit any summary of the family
whose extents never hold ancestor–descendant pairs.  This ablation
builds the whole family over the IEEE-like corpus — tag, A(1), A(2),
incoming, F&B, each with and without the INEX alias mapping — and
reports node counts, retrieval safety, and the translation size plus
Merge cost of one paper query under every *safe* summary.

Shapes asserted: refinement ordering of node counts; alias variants
never larger; coarser summaries translate queries to fewer or equal
sids; the answer *set* is identical under every safe summary (the
summary is an access path, not semantics).
"""

from conftest import record_report

from repro.bench import PAPER_QUERIES, format_rows
from repro.corpus import AliasMapping
from repro.retrieval import TrexEngine
from repro.summary import AKIndex, FBIndex, IncomingSummary, TagSummary


def _family(collection):
    alias = AliasMapping.inex_ieee()
    identity = AliasMapping.identity()
    return {
        "tag": TagSummary(collection, alias=identity),
        "tag+alias": TagSummary(collection, alias=alias),
        "a(1)": AKIndex(collection, k=1, alias=identity),
        "a(2)": AKIndex(collection, k=2, alias=identity),
        "incoming": IncomingSummary(collection, alias=identity),
        "incoming+alias": IncomingSummary(collection, alias=alias),
        "f&b": FBIndex(collection, alias=identity),
    }


def test_summary_family_ablation(benchmark, ieee_engine):
    collection = ieee_engine.collection
    query = PAPER_QUERIES[270].nexi  # //article//sec[...]

    def run():
        rows = []
        answer_sets = {}
        for name, summary in _family(collection).items():
            row = {
                "summary": name,
                "nodes": summary.sid_count,
                "safe": summary.is_retrieval_safe(),
                "sids_q270": "-",
                "merge_cost": "-",
                "answers": "-",
            }
            if row["safe"]:
                engine = TrexEngine(collection, summary)
                translated = engine.translate(query)
                engine.materialize_for_query(query, ("erpl",))
                result = engine.evaluate(query, k=None, method="merge")
                row["sids_q270"] = translated.num_sids
                row["merge_cost"] = round(result.stats.cost, 1)
                row["answers"] = len(result.hits)
                answer_sets[name] = frozenset(h.element_key()
                                              for h in result.hits)
            rows.append(row)
        return rows, answer_sets

    rows, answer_sets = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report("Ablation: summary choice (Q270 under the whole family)",
                  format_rows(rows))

    nodes = {row["summary"]: row["nodes"] for row in rows}
    # Refinement ordering: tag <= A(1) <= A(2) <= incoming <= F&B.
    assert nodes["tag"] <= nodes["a(1)"] <= nodes["a(2)"] <= nodes["incoming"]
    assert nodes["incoming"] <= nodes["f&b"]
    # Alias variants are never larger.
    assert nodes["tag+alias"] <= nodes["tag"]
    assert nodes["incoming+alias"] <= nodes["incoming"]

    # Safe summaries sharing an alias mapping agree on the answer set —
    # the summary is an access path, not semantics.  (Alias variants
    # legitimately answer more: ss1/ss2 sections fold into sec.)
    identity_sets = {answer_sets[name] for name in answer_sets
                     if "alias" not in name}
    alias_sets = {answer_sets[name] for name in answer_sets
                  if "alias" in name}
    assert len(identity_sets) == 1, "identity-alias summaries disagreed"
    assert len(alias_sets) <= 1
    if alias_sets:
        assert next(iter(identity_sets)) <= next(iter(alias_sets))

    # Finer summaries translate to at least as many sids.
    sids = {row["summary"]: row["sids_q270"] for row in rows
            if row["sids_q270"] != "-"}
    if "tag" in sids and "incoming" in sids:
        assert sids["tag"] <= sids["incoming"]

"""WAND's windows skip only what cannot reach the top-k.

:class:`repro.retrieval.wand.WandSession` cuts each sid's position axis
at the block boundaries of the clause's ERPL ranges, bounds each window
by the block-max headers and skips a window whose bound is strictly
below θ.  Whatever it skips, its answer must be ERA's and Merge's top-k:
the same elements, in the same order, with the same score bits.

Draws: the corpus seed and document order (a shuffled order leaves docid
gaps in each shard of a hash partition), blocks of 2–8 rows, a paper
query or generated NEXI (evaluated flat: one clause), k, an optionally
ingested document (delta runs) and one or two shards.  Two fixed cases
pin that the skip path runs at all and that a window whose bound only
ties θ is read.

``REPRO_WAND_EXAMPLES`` raises the example count (CI uses 300).
"""

import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import PAPER_QUERIES
from repro.corpus import (AliasMapping, Collection, SyntheticIEEECorpus,
                          SyntheticWikipediaCorpus, XMLParser)
from repro.index import IndexCatalog, RplEntry
from repro.retrieval import TrexEngine, merge_retrieve, wand_retrieve
from repro.shard import ShardedEngine
from repro.storage import CostModel, free_cost_model
from repro.summary import IncomingSummary

from ..nexi.test_parser_properties import nexi_queries
from ..warm import warm

EXAMPLES = int(os.environ.get("REPRO_WAND_EXAMPLES", "25"))
CORPORA = {"ieee": (SyntheticIEEECorpus, AliasMapping.inex_ieee),
           "wiki": (SyntheticWikipediaCorpus, AliasMapping.inex_wikipedia)}


def build(collection, corpus_seed, num_docs, order_seed, block_size,
          delta_docs, shards):
    """*num_docs* documents in a shuffled order, blocks of *block_size*
    rows, behind one or two shards; the corpus source of the documents
    held back for ingestion comes with it."""
    corpus_class, alias = CORPORA[collection]
    corpus = corpus_class(num_docs=num_docs + delta_docs, seed=corpus_seed)
    order = list(range(num_docs + delta_docs))
    random.Random(order_seed).shuffle(order)
    parser = XMLParser()
    built = Collection(name=collection)
    for docid, source in enumerate(order[:num_docs]):
        built.add(parser.parse(corpus.document_xml(source), docid))
    engine = TrexEngine(built, IncomingSummary(built, alias=alias()),
                        block_size=block_size)
    target = engine if shards == 1 else ShardedEngine.from_engine(engine,
                                                                  shards)
    return target, [corpus.document_xml(source)
                    for source in order[num_docs:]]


def answer(result):
    return [(hit.docid, hit.end_pos, hit.sid, hit.length, hit.score)
            for hit in result.hits]


def check(target, nexi, k, held_back):
    """WAND's top-k is ERA's and Merge's; the universal ERPLs are built
    before the held-back documents are ingested, so those land in delta
    runs."""
    warm(target, nexi, ("erpl",), mode="flat")
    for source in held_back:
        target.add_document(source)
    era = target.evaluate(nexi, k=k, method="era", mode="flat")
    merge = target.evaluate(nexi, k=k, method="merge", mode="flat")
    wand = target.evaluate(nexi, k=k, method="wand", mode="flat")
    assert answer(wand) == answer(era) == answer(merge)
    return wand.stats


def queries():
    paper = st.sampled_from(sorted(PAPER_QUERIES)).map(
        lambda qid: (PAPER_QUERIES[qid].collection, PAPER_QUERIES[qid].nexi))
    return paper | nexi_queries().map(lambda nexi: ("ieee", nexi))


@given(query=queries(), corpus_seed=st.integers(0, 10**6),
       num_docs=st.integers(6, 14), order_seed=st.integers(0, 10**6),
       block_size=st.integers(2, 8), k=st.sampled_from((1, 2, 5, 10, 100)),
       delta_docs=st.integers(0, 1), shards=st.sampled_from((1, 2)))
@settings(max_examples=EXAMPLES, deadline=None)
def test_wand_equals_era_and_merge(query, corpus_seed, num_docs, order_seed,
                                   block_size, k, delta_docs, shards):
    collection, nexi = query
    target, held_back = build(collection, corpus_seed, num_docs, order_seed,
                              block_size, delta_docs, shards)
    check(target, nexi, k, held_back)


def test_the_skip_path_runs():
    """Q260 flat at k=1 over 2-row blocks: some window's bound falls
    below θ, and the answer is still ERA's."""
    target, held_back = build("ieee", 42, 14, 0, 2, 0, 1)
    stats = check(target, PAPER_QUERIES[260].nexi, 1, held_back)
    assert stats.pivot_advances > 0
    assert stats.blocks_skipped_shallow > 0


def test_a_window_tied_with_theta_is_read():
    """Sid 1's window is read first and sets θ = 0.9; sid 2's window is
    bounded by exactly 0.9 and holds a 0.9 element with a smaller key,
    which wins the tie at k=1 — so the window must be read."""
    catalog = IndexCatalog(cost_model=free_cost_model(), block_size=2)
    segment = catalog.add_erpl_segment("term", [
        RplEntry(0.9, 1, 5, 10, 4), RplEntry(0.2, 1, 6, 10, 4),
        RplEntry(0.9, 2, 1, 10, 4), RplEntry(0.1, 2, 2, 10, 4)])
    segments = {"term": segment}
    wand, _ = wand_retrieve(catalog, segments, {1, 2}, 1, CostModel())
    merge, _ = merge_retrieve(catalog, segments, {1, 2}, CostModel(), k=1)
    assert [hit.element_key() for hit in wand] == \
        [hit.element_key() for hit in merge] == [(1, 10)]

"""The base build's bytes depend on the rows, never on how they arrive.

``BlockedPostings.rebuild`` and ``BlockedElements.rebuild`` gather each
key's rows as columns and stream them into the encoder without a sort,
so they rely on reading documents by docid and a document's rows by
position.  These properties pin that, where the recorded image digests
cannot (they cover ascending, gap-free docids only):

* a build over any permutation of the documents, or over any subset of
  them (a hash shard's docids, with gaps), stores exactly the bytes of
  a reference build that sorts every key's row tuples first;
* building some documents and ingesting the rest one at a time, in any
  order, stores exactly the bytes of one build over all of them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import M_POS, AliasMapping, SyntheticIEEECorpus
from repro.index import BlockedElements, BlockedPostings, extend_posting_lists
from repro.storage import BlockSequence, free_cost_model
from repro.summary import TagSummary

NUM_DOCS = 6
# Short documents (a few hundred positions) with many subsections.
COLLECTION = SyntheticIEEECorpus(
    num_docs=NUM_DOCS, seed=11, sections_range=(1, 3),
    paragraphs_range=(1, 2), subsection_probability=0.9).build()
# Aliasing folds sec / ss1 / ss2 into one sid, so one sid's elements
# nest inside each other: document order is not its row order.
SUMMARY = TagSummary(COLLECTION, alias=AliasMapping.inex_ieee())
DOCUMENTS = [COLLECTION.document(docid) for docid in range(NUM_DOCS)]

CHUNKS = st.sampled_from([4, 64])
PERMUTATIONS = st.permutations(range(NUM_DOCS))
SUBSETS = st.lists(st.sampled_from(range(NUM_DOCS)), min_size=1,
                   unique=True)
EXAMPLES = settings(max_examples=15, deadline=None)


def postings(documents, chunk):
    index = BlockedPostings(cost_model=free_cost_model(),
                            fragment_size=chunk)
    index.rebuild(documents)
    return index


def elements(documents, chunk):
    index = BlockedElements(cost_model=free_cost_model(), block_size=chunk)
    index.rebuild(documents, SUMMARY)
    return index


def reference_rows(documents):
    """Every key's rows as tuples, per index: the route the columnar
    build replaced."""
    terms, sids = {}, {}
    for document in documents:
        for term, position in zip(document.terms, document.positions):
            terms.setdefault(term, []).append((document.docid, position))
        for node in document.elements():
            sid = SUMMARY.sid_of(document.docid, node.end_pos)
            sids.setdefault(sid, []).append(
                (document.docid, node.end_pos, node.length))
    return terms, sids


def assert_reference_images(index, rows, terminator):
    assert index.keys() == sorted(rows)
    for key, key_rows in rows.items():
        expected = BlockSequence.build(sorted([*key_rows, *terminator]),
                                       index.codec, block_size=index.chunk)
        assert index.sequence(key).to_bytes() == expected.to_bytes(), key


@EXAMPLES
@given(order=PERMUTATIONS, chunk=CHUNKS)
def test_any_document_order_stores_the_ascending_bytes(order, chunk):
    shuffled = [DOCUMENTS[docid] for docid in order]
    assert (postings(shuffled, chunk).to_bytes()
            == postings(DOCUMENTS, chunk).to_bytes())
    assert (elements(shuffled, chunk).to_bytes()
            == elements(DOCUMENTS, chunk).to_bytes())


@EXAMPLES
@given(docids=SUBSETS, chunk=CHUNKS)
def test_a_shard_with_docid_gaps_stores_the_reference_bytes(docids, chunk):
    shard = [DOCUMENTS[docid] for docid in docids]
    terms, sids = reference_rows(shard)
    assert_reference_images(postings(shard, chunk), terms, (M_POS,))
    assert_reference_images(elements(shard, chunk), sids, ())
    ascending = sorted(shard, key=lambda document: document.docid)
    assert (postings(shard, chunk).to_bytes()
            == postings(ascending, chunk).to_bytes())


@EXAMPLES
@given(order=PERMUTATIONS, built=st.integers(1, NUM_DOCS), chunk=CHUNKS)
def test_ingesting_one_document_at_a_time_stores_one_builds_bytes(
        order, built, chunk):
    first = [DOCUMENTS[docid] for docid in order[:built]]
    grown_postings = postings(first, chunk)
    grown_elements = elements(first, chunk)
    for docid in order[built:]:
        extend_posting_lists(grown_postings, DOCUMENTS[docid])
        grown_elements.rebuild([DOCUMENTS[docid]], SUMMARY)
    assert grown_postings.to_bytes() == postings(DOCUMENTS, chunk).to_bytes()
    assert grown_elements.to_bytes() == elements(DOCUMENTS, chunk).to_bytes()

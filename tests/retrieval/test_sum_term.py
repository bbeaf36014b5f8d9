"""``merge.sum_term`` — one pass of ``get(code, 0.0) + score`` — against
the set-based body it replaced, kept here verbatim as the oracle.

The two agree value for value (compared as ``float.hex``) and in key
order as long as no element repeats within one term's rows, which the
last property holds of what Merge reads, ingested delta runs included.
``REPRO_SUM_TERM_EXAMPLES`` raises the example count (CI uses 300).
"""

from __future__ import annotations

import os
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import PAPER_QUERIES
from repro.retrieval import merge as merge_module
from repro.retrieval.merge import sum_term

from .test_merge_reference import build_engine

EXAMPLES = int(os.environ.get("REPRO_SUM_TERM_EXAMPLES", "50"))


def reference_sum_term(scores, codes, stored, weight):
    """The set-based body ``sum_term`` had before the one-pass loop."""
    weighted = dict(zip(codes, stored if weight == 1.0
                        else map(weight.__mul__, stored)))
    if not scores:
        return weighted
    shared = list(weighted.keys() & scores.keys())
    summed = list(map(add, map(scores.__getitem__, shared),
                      map(weighted.__getitem__, shared)))
    scores.update(weighted)
    scores.update(zip(shared, summed))
    return scores


scores_st = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                      allow_infinity=False)
weights_st = st.one_of(st.just(1.0), st.just(2.0),
                       st.floats(min_value=1e-3, max_value=10.0))


@st.composite
def terms_st(draw):
    """Term rows over one pool of codes: each term holds each of its
    codes once, so lists come out empty, disjoint or overlapping."""
    pool = draw(st.lists(st.integers(0, 1 << 40), unique=True,
                         max_size=40))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        codes = draw(st.lists(st.sampled_from(pool), unique=True)
                     if pool else st.just([]))
        stored = draw(st.lists(scores_st, min_size=len(codes),
                               max_size=len(codes)))
        terms.append((codes, stored, draw(weights_st)))
    return terms


def summed(add_term, terms):
    scores: dict[int, float] = {}
    for codes, stored, weight in terms:
        scores = add_term(scores, codes, stored, weight)
    return [(code, score.hex()) for code, score in scores.items()]


@given(terms=terms_st())
@settings(max_examples=EXAMPLES, deadline=None)
def test_sum_term_equals_the_set_based_body(terms):
    assert summed(sum_term, terms) == summed(reference_sum_term, terms)


@given(qid=st.sampled_from(sorted(PAPER_QUERIES)),
       corpus_seed=st.integers(0, 10**6), num_docs=st.integers(6, 14),
       order_seed=st.integers(0, 10**6), block_size=st.integers(2, 8),
       delta_docs=st.integers(0, 3))
@settings(max_examples=max(1, EXAMPLES // 5), deadline=None)
def test_no_element_repeats_within_a_terms_rows(qid, **case):
    """Merge reads a term's (sid, run) ranges one after another; no
    element is in two of them, so ``sum_term`` never meets one twice."""
    nexi = PAPER_QUERIES[qid].nexi
    engine = build_engine(PAPER_QUERIES[qid].collection, nexi=nexi, **case)
    translated = engine.translate(nexi)
    for clause in (*translated.clauses, translated.flat_clause()):
        segments = engine.segments_for(clause, "erpl")
        read = merge_module._read_ranges(
            engine.catalog, list(segments.values()), sorted(clause.sids))
        for codes, _, _, _ in read:
            assert len(set(codes)) == len(codes)

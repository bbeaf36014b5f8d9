"""A request's cost is its meter delta, read in one place.

``TrexEngine._execute`` and ``ShardedEngine.evaluate_translated`` each
snapshot the cost model when a request starts and price it with
``EvaluationStats.price`` when it ends; the strategies report hits and
diagnostics only.  Two properties pin that down:

* on every engine kind (``TrexEngine``, the coordinator at one and at
  two shards), ``stats.cost``, ``ideal_cost``, ``blocks_read``,
  ``blocks_decoded``, ``blocks_skipped`` and ``entries_decoded`` are
  exactly the meter's delta around ``evaluate_translated`` — whatever
  is charged outside a clause (the nexi combination, a ``single``
  finish's sort, the phrase filter) included;
* a one-shard coordinator over an engine is charged what the engine is
  charged for the same request plus the final ``sort`` of the gathered
  hits, and nothing else: a lone heap's floor prunes nothing, so the
  global floor — ``_global_floor``'s compares and the ``can_prune``
  test a resumable session makes against it — is never computed;
* at two shards the floor is charged exactly when two runs hold a
  heap, and in comparisons only.

Draws: the engine kind, the strategy (``auto`` too), the mode, k ∈
{1, 10, None}, ``require_phrases`` and the query — one of the paper's
or generated NEXI (``tests/nexi/test_parser_properties.py``'s
``nexi_queries``, as ``test_differential_properties.py`` draws it).

``REPRO_METER_EXAMPLES`` raises the example count (CI uses 200).
"""

import functools
import math
import os
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import PAPER_QUERIES
from repro.corpus import (AliasMapping, SyntheticIEEECorpus,
                          SyntheticWikipediaCorpus)
from repro.retrieval import TrexEngine
from repro.retrieval.ta import TaSession
from repro.retrieval.wand import WandSession
from repro.shard import ShardedEngine
from repro.storage.pager import PageCache
from repro.summary import IncomingSummary

from ..nexi.test_parser_properties import nexi_queries
from ..warm import warm

EXAMPLES = int(os.environ.get("REPRO_METER_EXAMPLES", "25"))
CORPORA = {"ieee": (SyntheticIEEECorpus, AliasMapping.inex_ieee),
           "wiki": (SyntheticWikipediaCorpus, AliasMapping.inex_wikipedia)}
KINDS = ("engine", "1 shard", "2 shards")


@functools.cache
def engines(collection: str) -> dict:
    """20 documents, blocks of four rows; each example builds its
    query's lists.  The one-shard coordinator adopts the engine itself."""
    corpus_class, alias = CORPORA[collection]
    built = corpus_class(num_docs=20, seed=42).build()
    engine = TrexEngine(built, IncomingSummary(built, alias=alias()),
                        block_size=4)
    return {"engine": engine,
            "1 shard": ShardedEngine.from_engine(engine, 1),
            "2 shards": ShardedEngine.from_engine(engine, 2)}


def queries():
    paper = st.sampled_from(sorted(PAPER_QUERIES)).map(
        lambda qid: (PAPER_QUERIES[qid].collection, PAPER_QUERIES[qid].nexi))
    return paper | nexi_queries().map(lambda nexi: ("ieee", nexi))


def priced(stats) -> tuple:
    return (stats.cost, stats.ideal_cost, stats.blocks_read,
            stats.blocks_decoded, stats.blocks_skipped,
            stats.entries_decoded)


def metered(target, translated, k, method, mode, require_phrases):
    """One request on *target*: its result and the meter's delta."""
    model = target.cost_model
    start = model.snapshot()
    result = target.evaluate_translated(translated, k, method, mode=mode,
                                        require_phrases=require_phrases)
    return result, model.since(start)


class FloorTally:
    """The global floor's charges: every counter moved inside
    ``_global_floor`` and inside a session's ``can_prune``."""

    def __init__(self, model) -> None:
        self.model = model
        self.counters: dict[str, int] = {}

    def wrap(self, monkeypatch, owner, name) -> None:
        original = getattr(owner, name)

        def tallied(*args, **kwargs):
            before = self.model.counters.as_dict()
            try:
                return original(*args, **kwargs)
            finally:
                after = self.model.counters.as_dict()
                for counter, value in after.items():
                    moved = value - before[counter]
                    if moved:
                        self.counters[counter] = (
                            self.counters.get(counter, 0) + moved)
        monkeypatch.setattr(owner, name, tallied)


def floor_metered(target, translated, k, method, mode, require_phrases):
    """:func:`metered`, plus what the global floor was charged."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        floor = FloorTally(target.cost_model)
        floor.wrap(monkeypatch, ShardedEngine, "_global_floor")
        floor.wrap(monkeypatch, TaSession, "can_prune")
        floor.wrap(monkeypatch, WandSession, "can_prune")
        result, spent = metered(target, translated, k, method, mode,
                                require_phrases)
    return result, spent, floor.counters


def check_one_shard(engine, coordinator, nexi, k, method, mode,
                    require_phrases):
    """The coordinator's charges minus the engine's are its final sort."""
    translated = engine.translate(nexi)
    routed = coordinator.translate(nexi)
    runs = {}
    for name, target, request in (("engine", engine, translated),
                                  ("coordinator", coordinator, routed)):
        # Both runs start from the same cold buffer pool.
        engine.use_page_cache(PageCache(cost_model=engine.cost_model))
        runs[name] = floor_metered(target, request, k, method, mode,
                                   require_phrases)
    (mine, engine_spent, none), (theirs, spent, floor) = (
        runs["engine"], runs["coordinator"])
    assert none == {} and floor == {}
    assert [hit.element_key() for hit in theirs.hits] == \
        [hit.element_key() for hit in mine.hits]
    # The coordinator sorts what its one shard returned before the cut.
    gathered = theirs.stats.shard_stats[0]["hits"]
    want = asdict(engine_spent.counters)
    if gathered > 1:
        want["sort_elements"] += gathered
    assert asdict(spent.counters) == want
    # The float side-meters agree up to where each delta started.
    sort_work = gathered * math.log2(gathered) if gathered > 1 else 0.0
    assert (spent.read_units, spent.sort_work, spent.heap_levels) == \
        pytest.approx((engine_spent.read_units,
                       engine_spent.sort_work + sort_work,
                       engine_spent.heap_levels), rel=1e-12, abs=1e-9)
    own = engine.cost_model.charge.SORT_STEP * sort_work
    assert theirs.stats.cost == pytest.approx(mine.stats.cost + own,
                                              rel=1e-12, abs=1e-9)


def check_two_shards(coordinator, translated, k, method, mode,
                     require_phrases):
    """The floor is charged when, and only when, two runs hold a heap —
    each shard's plan is resumable — and in comparisons only."""
    heaps = sum(
        shard.engine.plan(local, k, method, mode=mode,
                          require_phrases=require_phrases).resumable
        for shard, local in zip(coordinator.shards, translated.per_shard))
    _result, _spent, floor = floor_metered(coordinator, translated, k,
                                           method, mode, require_phrases)
    assert set(floor) <= {"comparisons"}
    assert bool(floor) == (heaps > 1)


@given(kind=st.sampled_from(KINDS), query=queries(),
       method=st.sampled_from(("era", "ta", "merge", "wand", "auto")),
       mode=st.sampled_from(("nexi", "flat")),
       k=st.sampled_from((1, 10, None)), require_phrases=st.booleans())
@settings(max_examples=EXAMPLES, deadline=None)
def test_a_request_costs_its_meter_delta(kind, query, method, mode, k,
                                         require_phrases):
    collection, nexi = query
    built = engines(collection)
    target = built[kind]
    translated = target.translate(nexi)
    # Evaluation never builds: store the lists, then run the request
    # once outside the meter.
    warm(target, nexi)
    target.evaluate_translated(translated, k, method, mode=mode,
                               require_phrases=require_phrases)
    result, spent = metered(target, translated, k, method, mode,
                            require_phrases)
    assert priced(result.stats) == (
        spent.total_cost, spent.ideal_cost, spent.blocks_read,
        spent.blocks_decoded, spent.blocks_skipped, spent.entries_decoded)
    if kind == "1 shard":
        check_one_shard(built["engine"], target, nexi, k, method, mode,
                        require_phrases)
    elif kind == "2 shards":
        check_two_shards(target, translated, k, method, mode,
                         require_phrases)

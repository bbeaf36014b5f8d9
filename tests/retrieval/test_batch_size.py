"""``ta_batch_size`` / ``batch_size`` below 1 is rejected at all four
sites that take one.

It used to be a silent wrong answer on one engine and a hang on the
other: ``TaSession.step`` computed zero rounds, fetched nothing and
took the "every list exhausted" exit (0 hits where ERA finds 5), and
``WandSession.step`` (then a batch of pivot rounds, now of windows)
advanced nothing and reported the session live for ever — reachable
through ``ShardedEngine``, which feeds ``ta_batch_size`` in as WAND's
batch.
"""

import threading

import pytest

from repro.bench import PAPER_QUERIES
from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.retrieval import TrexEngine, ta_retrieve, wand_retrieve
from repro.shard import ShardedEngine
from repro.storage import CostModel
from repro.summary import IncomingSummary

from tests.warm import warm

NEXI = PAPER_QUERIES[203].nexi
K = 5
BAD_SIZES = (0, -1)


@pytest.fixture(scope="module")
def collection():
    return SyntheticIEEECorpus(num_docs=20, seed=42).build()


def _engine(collection, **options):
    alias = AliasMapping.inex_ieee()
    return TrexEngine(collection, IncomingSummary(collection, alias=alias),
                      **options)


@pytest.mark.parametrize("size", BAD_SIZES)
def test_both_engine_constructors_reject_it(collection, size):
    with pytest.raises(ValueError, match="ta_batch_size"):
        _engine(collection, ta_batch_size=size)
    with pytest.raises(ValueError, match="ta_batch_size"):
        ShardedEngine(collection, 2, alias=AliasMapping.inex_ieee(),
                      ta_batch_size=size)


@pytest.mark.parametrize("size", BAD_SIZES)
def test_both_sessions_reject_it(collection, size):
    engine = _engine(collection)
    engine.materialize_for_query(NEXI, scope="universal")
    (clause,) = engine.translate(NEXI).clauses
    for retrieve, kind in ((ta_retrieve, "rpl"), (wand_retrieve, "erpl")):
        with pytest.raises(ValueError, match="batch_size"):
            retrieve(engine.catalog, engine.segments_for(clause, kind),
                     clause.sids, K, CostModel(), batch_size=size)


@pytest.mark.parametrize("size", BAD_SIZES)
def test_ta_never_answers_with_nothing(collection, size):
    """An engine whose batch size went bad after construction must fail
    loudly, not return 0 hits where ERA returns 5."""
    engine = _engine(collection)
    engine.materialize_for_query(NEXI, ("rpl",))
    assert len(engine.evaluate(NEXI, k=K, method="era").hits) == K
    engine.ta_batch_size = size
    with pytest.raises(ValueError):
        engine.evaluate(NEXI, k=K, method="ta")


def test_sharded_wand_never_hangs(collection):
    """The window batch of sharded WAND is ``ta_batch_size``: at zero
    the session never advanced and the scatter-gather loop never ended."""
    engine = ShardedEngine(collection, 2, alias=AliasMapping.inex_ieee())
    warm(engine, NEXI, ("erpl",), mode="flat")
    engine.ta_batch_size = 0
    outcome = []

    def run():
        try:
            outcome.append(engine.evaluate(NEXI, k=K, method="wand",
                                           mode="flat"))
        except Exception as error:  # the assertion below inspects it
            outcome.append(error)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "sharded WAND did not return"
    assert isinstance(outcome[0], ValueError)

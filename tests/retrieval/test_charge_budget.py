"""How often an evaluation *calls* the cost model — a count, so it
repeats exactly.

Charges attach to simulated events but are tallied in locals and
flushed per block / batch / round, so the number of charging calls must
track the coarse events of a strategy — blocks opened, extent probes,
heap operations, steps and batches — and never the entries swept.
Pinned per strategy on Q260 (wildcard target, frequent terms: the paper
query with the most sids and the longest lists).
"""

from collections import Counter

import pytest

from repro.bench import PAPER_QUERIES
from repro.corpus import AliasMapping, SyntheticIEEECorpus
from repro.retrieval import TrexEngine, WandSession
from repro.storage import CostModel
from repro.summary import IncomingSummary

CHARGES = ("seek", "page_read", "page_hit", "tuple_read", "tuple_write",
           "compare", "score_combine", "block_read", "block_decompress",
           "block_decode", "block_skip", "sort", "heap_insert", "heap_remove")
K = 10
#: Charging calls of one warm ``evaluate(Q260, k=10, mode="flat")``.
PINNED_CALLS = {"era": 54, "ta": 3167, "merge": 112, "wand": 189}
#: Calls allowed per coarse event.  ERA pays a few per extent walk, not
#: per probe — the seeks, the two bisections' comparisons and the leapt
#: blocks tallied over the walk — and one page-hit charge per replay of
#: its logged block opens; Merge pays its directory searches, one call
#: per tally (seeks, the first blocks' sid bisections, the loop's
#: comparisons and combinations, the sort) and one page-hit charge per
#: replay of its logged opens; WAND pays its directory searches, its
#: seeks and window sort, and per step (a batch of windows) one call per
#: tally and one page-hit charge per replay of the step's logged opens.
CALLS_PER_EVENT = 3


class CountingModel(CostModel):
    """A cost model that counts how often each charge is called."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()


def _counted(name):
    charge = getattr(CostModel, name)

    def counted(self, *args, **kwargs):
        self.calls[name] += 1
        return charge(self, *args, **kwargs)
    return counted


for _name in CHARGES:
    setattr(CountingModel, _name, _counted(_name))


@pytest.fixture(scope="module")
def engine():
    collection = SyntheticIEEECorpus(num_docs=30, seed=42).build()
    engine = TrexEngine(collection,
                        IncomingSummary(collection,
                                        alias=AliasMapping.inex_ieee()),
                        cost_model=CountingModel())
    nexi = PAPER_QUERIES[260].nexi
    engine.materialize_for_query(nexi, scope="universal")
    for method in PINNED_CALLS:  # warm: every block resident
        engine.evaluate(nexi, k=K, method=method, mode="flat")
    return engine


def _evaluate(engine, method):
    """Charging calls, counter deltas, stats and WAND's ``step()`` calls."""
    model = engine.cost_model
    model.calls.clear()
    steps = Counter()
    step = WandSession.step

    def counted(session):
        steps["wand"] += 1
        return step(session)

    before = model.counters.as_dict()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(WandSession, "step", counted)
        result = engine.evaluate(PAPER_QUERIES[260].nexi, k=K, method=method,
                                 mode="flat")
    after = model.counters.as_dict()
    spent = {name: after[name] - before[name] for name in after}
    return sum(model.calls.values()), spent, result.stats, steps["wand"]


@pytest.mark.parametrize("method", sorted(PINNED_CALLS))
def test_charge_calls_are_pinned(engine, method):
    calls, _spent, _stats, _steps = _evaluate(engine, method)
    assert calls == PINNED_CALLS[method]


@pytest.mark.parametrize("method", sorted(PINNED_CALLS))
def test_charge_calls_track_coarse_events(engine, method):
    calls, spent, stats, steps = _evaluate(engine, method)
    batches = -(-sum(stats.list_depths.values()) // engine.ta_batch_size)
    events = (spent["seeks"] + spent["page_hits"] + spent["blocks_read"]
              + spent["heap_inserts"] + spent["heap_removes"]
              + (batches if method == "ta" else 0) + steps)
    assert calls <= CALLS_PER_EVENT * events
    # ...and never the entries swept: heap operations aside (one call
    # each, by design), a strategy is charged for far more comparisons
    # and combinations than it makes charging calls.
    heap_calls = spent["heap_inserts"] + spent["heap_removes"]
    assert (calls - heap_calls
            < (spent["comparisons"] + spent["score_combines"]) / 2)

"""The charging contract, pinned against a recorded fixture.

``data/charge_parity.json`` was recorded *before* charging left the
per-entry loops: for every cell it holds the answer keys (count +
digest), the full ``CostCounters.as_dict()`` delta of the evaluation
and the reported ``stats.cost`` / ``stats.ideal_cost``.  How charges
are tallied and flushed is free to change; what an evaluation is
charged for is not: answers and every integer must be identical, and
the priced cost may differ only by float noise (1e-6 relative).

Re-record (only when the *simulated events* change on purpose)::

    PYTHONPATH=src python tests/retrieval/test_charge_parity.py

The recorder writes ``hits``, ``keys`` and ``counters`` fresh but keeps
a recorded ``cost`` / ``ideal_cost`` that the fresh value matches up to
the same tolerance (:func:`rerecord`): a re-record for one cause moves
only the cells that cause moves, never float noise elsewhere.
"""

import hashlib
import json
import os

import pytest

from repro.bench import PAPER_QUERIES
from repro.corpus import (AliasMapping, SyntheticIEEECorpus,
                          SyntheticWikipediaCorpus)
from repro.retrieval import TrexEngine
from repro.shard import ShardedEngine
from repro.summary import IncomingSummary

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "charge_parity.json")
KS = (1, 10, 100)
METHODS = ("era", "ta", "ita", "merge", "wand")  # cell names (see _observe)
#: Relative tolerance on a priced cost: float noise, nothing more.
REL = 1e-6
#: The priced fields of a cell (the rest must match exactly).
PRICED = ("cost", "ideal_cost")
SHARDED_QUERIES = (202, 203, 260)
EXTRA_DOCUMENT = {
    "ieee": ("<article><bdy><sec><st>introduction</st><p>model checking "
             "state space explosion ontologies case study code signing "
             "verification information retrieval synthesizers music"
             "</p></sec></bdy></article>"),
    "wiki": ("<article><body><section><figure><caption>Renaissance "
             "painting Italian Flemish genetic algorithm</caption></figure>"
             "</section></body></article>"),
}


def _observe(engine, nexi, k, method, mode):
    # A cell named ``ita`` is a TA evaluation reported at its ideal cost
    # (heap clock paused); it keeps its place in the sweep because the
    # recorded counters depend on evaluation order and cache warmth.
    ideal = method == "ita"
    before = engine.cost_model.counters.as_dict()
    result = engine.evaluate(nexi, k=k, method="ta" if ideal else method,
                             mode=mode)
    after = engine.cost_model.counters.as_dict()
    keys = [(hit.docid, hit.end_pos, hit.sid, round(hit.score, 9))
            for hit in result.hits]
    return {
        "hits": len(keys),
        "keys": hashlib.sha1(repr(keys).encode()).hexdigest(),
        # Nonzero deltas only (the fixture stays readable); a counter that
        # starts moving shows up as an extra key, so nothing is hidden.
        "counters": {name: after[name] - before[name] for name in after
                     if after[name] != before[name]},
        "cost": result.stats.ideal_cost if ideal else result.stats.cost,
        "ideal_cost": result.stats.ideal_cost,
    }


def _sweep(engine, qids, modes, state, out):
    for qid in qids:
        for mode in modes:
            for k in KS:
                for method in METHODS:
                    out[f"{state}/Q{qid}/{mode}/k={k}/{method}"] = _observe(
                        engine, PAPER_QUERIES[qid].nexi, k, method, mode)


def rerecord(fresh, recorded):
    """The fixture a re-record writes: every cell of *fresh*, except that
    a priced field keeps its *recorded* value when the two agree up to
    :data:`REL` — the tolerance the check itself allows."""
    out = {}
    for cell, got in fresh.items():
        kept = dict(got)
        want = recorded.get(cell)
        if want is not None:
            for name in PRICED:
                if got[name] == pytest.approx(want[name], rel=REL):
                    kept[name] = want[name]
        out[cell] = kept
    return out


def collect():
    """Every cell of the contract, in one fixed evaluation order."""
    out = {}
    ieee = SyntheticIEEECorpus(num_docs=30, seed=42).build()
    wiki = SyntheticWikipediaCorpus(num_docs=40, seed=42).build()
    engines = {
        "ieee": TrexEngine(ieee, IncomingSummary(
            ieee, alias=AliasMapping.inex_ieee())),
        "wiki": TrexEngine(wiki, IncomingSummary(
            wiki, alias=AliasMapping.inex_wikipedia())),
    }
    by_collection = {
        name: [qid for qid in sorted(PAPER_QUERIES)
               if PAPER_QUERIES[qid].collection == name]
        for name in engines}
    for name, engine in engines.items():
        _sweep(engine, by_collection[name], ("flat", "nexi"), "base", out)
    for name, engine in engines.items():
        engine.add_document(EXTRA_DOCUMENT[name])  # delta runs go live
        _sweep(engine, by_collection[name], ("flat",), "delta", out)
    for name, engine in engines.items():
        ShardedEngine.from_engine(engine, 1).compact_segments(force=True)
        _sweep(engine, by_collection[name], ("flat",), "compacted", out)

    sharded_docs = SyntheticIEEECorpus(num_docs=30, seed=42).build()
    sharded = ShardedEngine(sharded_docs, 2, replicas=2,
                            alias=AliasMapping.inex_ieee())
    _sweep(sharded, SHARDED_QUERIES, ("flat",), "sharded2x2", out)
    return out


@pytest.fixture(scope="module")
def observed():
    return collect()


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_same_cells(observed, recorded):
    assert sorted(observed) == sorted(recorded)


def test_answers_and_integer_counters_are_identical(observed, recorded):
    for cell, want in recorded.items():
        got = observed[cell]
        assert (got["hits"], got["keys"]) == (want["hits"], want["keys"]), cell
        assert got["counters"] == want["counters"], cell


def test_costs_differ_by_float_noise_only(observed, recorded):
    for cell, want in recorded.items():
        got = observed[cell]
        for name in PRICED:
            assert got[name] == pytest.approx(want[name], rel=REL), cell


def test_rerecord_keeps_float_noise_and_takes_real_moves():
    recorded = {"a": {"cost": 100.0, "ideal_cost": 50.0, "hits": 1},
                "b": {"cost": 100.0, "ideal_cost": 50.0, "hits": 1}}
    fresh = {"a": {"cost": 100.0 * (1 + 1e-9), "ideal_cost": 50.0 * (1 - 1e-9),
                   "hits": 2},
             "b": {"cost": 101.0, "ideal_cost": 50.0 * (1 + 1e-9), "hits": 1},
             "c": {"cost": 7.0, "ideal_cost": 7.0, "hits": 0}}
    assert rerecord(fresh, recorded) == {
        # Noise keeps the recorded float; the integers are written fresh.
        "a": {"cost": 100.0, "ideal_cost": 50.0, "hits": 2},
        # A real move is written; the noisy field beside it is kept.
        "b": {"cost": 101.0, "ideal_cost": 50.0, "hits": 1},
        # A new cell is written as observed.
        "c": {"cost": 7.0, "ideal_cost": 7.0, "hits": 0}}


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    previous = {}
    if os.path.exists(FIXTURE):
        with open(FIXTURE, encoding="utf-8") as handle:
            previous = json.load(handle)
    cells = rerecord(collect(), previous)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(cell)}: {json.dumps(cells[cell], sort_keys=True)}"
            for cell in sorted(cells)) + "\n}\n")

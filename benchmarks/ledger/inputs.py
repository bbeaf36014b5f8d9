"""Seed → every input the benchmark feeds the program.

The program under test only ever receives generated inputs, and the
same ``--seed`` reproduces them exactly.  What the seed varies is
*order*, never *amount*: it permutes the documents of one fixed
synthetic corpus (so every docid, block boundary and expected answer
changes), the documents POSTed to ``/ingest`` and each client's walk
over the request cells.  A different corpus per seed was tried first
and changed the work per query by more than anything a run measures
(spread of the median latency over ten seeds 0.19, against 0.08 for one
seed repeated), which would have drowned every later comparison.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.bench import PAPER_QUERIES
from repro.corpus.alias import AliasMapping
from repro.corpus.collection import Collection
from repro.corpus.generator import SyntheticIEEECorpus, SyntheticWikipediaCorpus
from repro.corpus.xmlparser import XMLParser
from repro.retrieval.engine import TrexEngine
from repro.summary.variants import IncomingSummary

#: Seed of the one corpus every run permutes.
CORPUS_SEED = 42

#: The five IEEE paper queries the serve workloads request.
IEEE_QUERY_IDS = (202, 203, 233, 260, 270)
#: All seven paper queries (method_grid adds the two Wikipedia ones).
ALL_QUERY_IDS = (202, 203, 233, 260, 270, 290, 292)
K_VALUES = (1, 10, 100)
FORCED_METHODS = ("era", "ta", "merge", "wand")


@dataclass(frozen=True)
class Sizes:
    """Corpus sizes; ``--smoke`` shrinks them, nothing else does."""

    ieee_docs: int = 120
    wiki_docs: int = 200

    @classmethod
    def smoke(cls) -> Sizes:
        return cls(ieee_docs=20, wiki_docs=30)


@dataclass(frozen=True)
class Cell:
    """One request shape: a paper query at one k."""

    qid: int
    k: int

    @property
    def nexi(self) -> str:
        return PAPER_QUERIES[self.qid].nexi

    @property
    def label(self) -> str:
        return f"Q{self.qid}/k={self.k}"


def serve_cells() -> list[Cell]:
    """The 15 request cells: five IEEE queries × k ∈ {1, 10, 100}."""
    return [Cell(qid, k) for qid in IEEE_QUERY_IDS for k in K_VALUES]


def grid_cells() -> list[Cell]:
    """The 21 (query, k) cells of the method grid."""
    return [Cell(qid, k) for qid in ALL_QUERY_IDS for k in K_VALUES]


def client_schedule(seed: int, client: int) -> list[Cell]:
    """Client *client*'s own shuffle of the 15 cells.  It is walked
    cyclically, so every run has the same composition."""
    cells = serve_cells()
    random.Random(seed + client).shuffle(cells)
    return cells


#: Called between units of set-up work (the speed probe's turn).
Tick = Callable[[], None]


def no_tick() -> None:
    """The default :data:`Tick`: nothing runs between units."""


def _permuted(corpus: SyntheticIEEECorpus | SyntheticWikipediaCorpus,
              seed: int | None, name: str, tick: Tick) -> Collection:
    """The corpus's documents in an order drawn from *seed* (``None``:
    the order they are generated in)."""
    order = list(range(corpus.num_docs))
    if seed is not None:
        random.Random(seed).shuffle(order)
    parser = XMLParser()
    collection = Collection(name=name)
    for docid, source in enumerate(order):
        collection.add(parser.parse(corpus.document_xml(source), docid))
        tick()
    return collection


def ieee_collection(seed: int | None, sizes: Sizes,
                    tick: Tick = no_tick) -> Collection:
    return _permuted(SyntheticIEEECorpus(num_docs=sizes.ieee_docs,
                                         seed=CORPUS_SEED), seed, "ieee", tick)


def wiki_collection(seed: int, sizes: Sizes,
                    tick: Tick = no_tick) -> Collection:
    return _permuted(SyntheticWikipediaCorpus(num_docs=sizes.wiki_docs,
                                              seed=CORPUS_SEED), seed, "wiki",
                     tick)


def ieee_summary(collection: Collection) -> IncomingSummary:
    return IncomingSummary(collection, alias=AliasMapping.inex_ieee())


def ieee_engine(collection: Collection, **options: Any) -> TrexEngine:
    """The configuration the paper's experiments (and ``repro serve
    --alias ieee``) run: alias incoming summary, default scorer."""
    return TrexEngine(collection, ieee_summary(collection), **options)


def wiki_engine(collection: Collection) -> TrexEngine:
    summary = IncomingSummary(collection,
                              alias=AliasMapping.inex_wikipedia())
    return TrexEngine(collection, summary)


def ingest_documents(seed: int, count: int) -> list[str]:
    """Documents POSTed to ``/ingest``: the first *count* of a corpus one
    seed along (never copies of resident ones), in an order drawn from
    *seed*."""
    source = SyntheticIEEECorpus(seed=CORPUS_SEED + 1)
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return [source.document_xml(index) for index in order]


# ----------------------------------------------------------------------
# Answers, in the shape the HTTP payload rounds them to
# ----------------------------------------------------------------------
AnswerKey = tuple[int, int, int, float]


def hit_keys(hits: Any) -> list[AnswerKey]:
    """``(docid, sid, end, score)`` per engine hit, score rounded as
    ``QueryService._payload`` rounds it."""
    return [(hit.docid, hit.sid, hit.end_pos, round(hit.score, 6))
            for hit in hits]


def payload_keys(payload: dict) -> list[AnswerKey]:
    """The same key from a ``/search`` reply."""
    return [(row["docid"], row["sid"], row["end"], row["score"])
            for row in payload["hits"]]


def era_oracle(engine: TrexEngine, cells: list[Cell], mode: str,
               tick: Tick = no_tick) -> dict[Cell, list[AnswerKey]]:
    """One ERA evaluation per cell on a fresh engine: the answers every
    strategy, topology and cache state must reproduce."""
    answers = {}
    for cell in cells:
        answers[cell] = hit_keys(engine.evaluate(
            cell.nexi, k=cell.k, method="era", mode=mode).hits)
        tick()
    return answers

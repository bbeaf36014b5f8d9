"""TReX reproduction: self-managing top-k (summary, keyword) indexes
for XML retrieval (Consens, Gu, Kanza, Rizzolo -- ICDE 2007).

Quickstart::

    from repro import SyntheticIEEECorpus, TrexEngine, AliasMapping, IncomingSummary

    collection = SyntheticIEEECorpus(num_docs=50).build()
    summary = IncomingSummary(collection, alias=AliasMapping.inex_ieee())
    engine = TrexEngine(collection, summary)
    results = engine.evaluate(
        "//article[about(., xml)]//sec[about(., query evaluation)]", k=10)
    for hit in results:
        print(hit.score, hit.docid, hit.end_pos)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced table and figure.
"""

from .corpus import (
    AliasMapping,
    Collection,
    Document,
    SyntheticIEEECorpus,
    SyntheticWikipediaCorpus,
    Tokenizer,
    XMLParser,
    parse_document,
)
from .nexi import NexiQuery, parse_nexi, translate_query
from .retrieval import EvaluationStats, ResultSet, TrexEngine
from .scoring import BM25Scorer, LMImpactScorer, ScoredHit, ScoringStats, TfIdfScorer
from .selfmanage import (
    GreedyIndexSelector,
    IlpIndexSelector,
    IndexAdvisor,
    Workload,
    WorkloadQuery,
)
from .selfmanage import WorkloadGenerator
from .storage import Charge, CostModel
from .summary import AKIndex, FBIndex, IncomingSummary, TagSummary

__version__ = "1.0.0"

__all__ = [
    "AliasMapping",
    "Collection",
    "Document",
    "SyntheticIEEECorpus",
    "SyntheticWikipediaCorpus",
    "Tokenizer",
    "XMLParser",
    "parse_document",
    "NexiQuery",
    "parse_nexi",
    "translate_query",
    "EvaluationStats",
    "ResultSet",
    "TrexEngine",
    "BM25Scorer",
    "ScoredHit",
    "ScoringStats",
    "TfIdfScorer",
    "GreedyIndexSelector",
    "IlpIndexSelector",
    "IndexAdvisor",
    "Workload",
    "WorkloadQuery",
    "Charge",
    "CostModel",
    "AKIndex",
    "FBIndex",
    "IncomingSummary",
    "TagSummary",
    "LMImpactScorer",
    "WorkloadGenerator",
    "__version__",
]

"""Retrieval strategies: ERA, TA, Merge, WAND, and the TReX engine.

Each strategy function charges the cost model it is given and returns
hits plus diagnostics; it never reads the meter.  A request's cost is
read once, by the engine or the coordinator that ran it."""

from .engine import METHODS, TrexEngine
from .era import era_raw, era_retrieve
from .heap import TopKHeap
from .iterators import (
    DUMMY_ELEMENT,
    ElementSpan,
    ExtentIterator,
    PostingIterator,
    RplIterator,
)
from .merge import merge_retrieve
from .result import EvaluationStats, ResultSet
from .ta import DEFAULT_BATCH_SIZE, ta_retrieve
from .wand import WandSession, wand_retrieve

__all__ = [
    "METHODS",
    "TrexEngine",
    "era_raw",
    "era_retrieve",
    "TopKHeap",
    "DUMMY_ELEMENT",
    "ElementSpan",
    "ExtentIterator",
    "PostingIterator",
    "RplIterator",
    "merge_retrieve",
    "EvaluationStats",
    "ResultSet",
    "DEFAULT_BATCH_SIZE",
    "ta_retrieve",
    "WandSession",
    "wand_retrieve",
]

"""Retrieval strategies: ERA, TA, Merge, WAND, and the TReX engine."""

from .engine import METHODS, TrexEngine
from .era import era_raw, era_retrieve
from .heap import TopKHeap
from .iterators import (
    DUMMY_ELEMENT,
    ElementSpan,
    ErplIterator,
    ExtentIterator,
    PostingIterator,
    RplIterator,
)
from .merge import merge_retrieve
from .result import EvaluationStats, ResultSet
from .ta import DEFAULT_BATCH_SIZE, ta_retrieve
from .wand import DEFAULT_PIVOT_BATCH, WandSession, wand_retrieve

__all__ = [
    "METHODS",
    "TrexEngine",
    "era_raw",
    "era_retrieve",
    "TopKHeap",
    "DUMMY_ELEMENT",
    "ElementSpan",
    "ErplIterator",
    "ExtentIterator",
    "PostingIterator",
    "RplIterator",
    "merge_retrieve",
    "EvaluationStats",
    "ResultSet",
    "DEFAULT_BATCH_SIZE",
    "ta_retrieve",
    "DEFAULT_PIVOT_BATCH",
    "WandSession",
    "wand_retrieve",
]

"""Relevance scoring: corpus stats, BM25/tf-idf scorers, aggregation."""

from .combine import ScoredHit
from .scorers import BM25Scorer, ElementScorer, LMImpactScorer, TfIdfScorer
from .stats import ScoringStats

__all__ = [
    "ScoredHit",
    "BM25Scorer",
    "ElementScorer",
    "LMImpactScorer",
    "TfIdfScorer",
    "ScoringStats",
]

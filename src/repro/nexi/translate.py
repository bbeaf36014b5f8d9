"""The translation phase: NEXI query → sid sets and term sets.

Paper §3.1: "each path p in the query from the root to an about()
function is translated to a set of sids and a set of terms.  [...] the
set of sids consists of all the summary nodes whose extent has a
non-empty intersection with E_p, whereas the set of terms consists of
all the terms that appear in the about() function at the end of p."

For the query of the paper's Example 1.1 over the alias incoming
summary, ``//article//sec[about(., query evaluation)]`` yields the sec
sids and terms {query, evaluation}, while ``//article[about(., XML)]``
yields the article sid and {xml} — one :class:`TranslatedClause` each.

Keyword handling: ``+term`` is emphasized (double weight), ``-term`` is
recorded but *excluded* from retrieval scoring (keeping the aggregation
monotone for TA; this is the usual TopX-style treatment), and phrases
contribute their individual words.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..corpus.tokenizer import Tokenizer
from ..summary.base import PartitionSummary
from ..summary.matcher import PathPattern, sids_for_pattern
from .ast import ComparisonClause, NexiQuery
from .parser import parse_nexi

__all__ = ["MEMO_CAPACITY", "TranslatedClause", "TranslatedComparison",
           "TranslatedQuery", "translate_memoized", "translate_query"]


@dataclass(frozen=True)
class TranslatedClause:
    """One retrieval task: a sid set, weighted terms, and its role."""

    step_index: int
    pattern: PathPattern
    sids: frozenset[int]
    term_weights: tuple[tuple[str, float], ...]  # (term, weight), weight > 0
    excluded_terms: tuple[str, ...]
    is_target: bool  # attached (via '.') to the query's last step
    #: Quoted phrases, as tuples of normalized words (multi-word only).
    phrases: tuple[tuple[str, ...], ...] = ()

    @property
    def terms(self) -> tuple[str, ...]:
        return tuple(term for term, _ in self.term_weights)

    def weight_of(self, term: str) -> float:
        for candidate, weight in self.term_weights:
            if candidate == term:
                return weight
        return 0.0


@dataclass(frozen=True)
class TranslatedComparison:
    """A translated value-comparison filter."""

    step_index: int
    pattern: PathPattern
    sids: frozenset[int]
    clause: ComparisonClause
    #: Sids of the query step the comparison is attached to — the join
    #: point between the compared element and the query's target.
    step_sids: frozenset[int] = frozenset()


@dataclass(frozen=True)
class TranslatedQuery:
    """The full translation of one NEXI query."""

    query: NexiQuery
    target_pattern: PathPattern
    target_sids: frozenset[int]
    clauses: tuple[TranslatedClause, ...] = field(default=())
    comparisons: tuple[TranslatedComparison, ...] = field(default=())

    @property
    def target_clauses(self) -> tuple[TranslatedClause, ...]:
        return tuple(clause for clause in self.clauses if clause.is_target)

    @property
    def support_clauses(self) -> tuple[TranslatedClause, ...]:
        return tuple(clause for clause in self.clauses if not clause.is_target)

    # Flattened view (paper §2.2) ----------------------------------------
    def flat_sids(self) -> frozenset[int]:
        """Union of all clause sids — the paper's single-task sid list."""
        result: set[int] = set()
        for clause in self.clauses:
            result.update(clause.sids)
        return frozenset(result)

    def flat_term_weights(self) -> dict[str, float]:
        """Merged term weights across clauses (max weight per term)."""
        weights: dict[str, float] = {}
        for clause in self.clauses:
            for term, weight in clause.term_weights:
                weights[term] = max(weights.get(term, 0.0), weight)
        return weights

    def flat_clause(self) -> TranslatedClause:
        """The paper's §2.2 single retrieval task (flat mode's one clause)."""
        return TranslatedClause(
            step_index=len(self.query.steps) - 1,
            pattern=self.target_pattern,
            sids=self.flat_sids(),
            term_weights=tuple(sorted(self.flat_term_weights().items())),
            excluded_terms=(),
            is_target=True,
        )

    # Table 1-style statistics -------------------------------------------
    @property
    def num_sids(self) -> int:
        """Total sids across clauses (paper Table 1's '# sids')."""
        return sum(len(clause.sids) for clause in self.clauses)

    @property
    def num_terms(self) -> int:
        """Distinct terms across clauses (paper Table 1's '# terms')."""
        seen: set[str] = set()
        for clause in self.clauses:
            seen.update(clause.terms)
            seen.update(clause.excluded_terms)
        return len(seen)


_EMPHASIS_WEIGHT = 2.0


def translate_query(query: NexiQuery, summary: PartitionSummary,
                    tokenizer: Tokenizer | None = None, *,
                    vague: bool = True) -> TranslatedQuery:
    """Translate *query* against *summary* into retrieval tasks.

    ``vague`` selects the paper's vague interpretation: query labels are
    canonicalized through the summary's alias mapping during matching.
    """
    tokenizer = tokenizer if tokenizer is not None else Tokenizer()
    last_step = len(query.steps) - 1
    clauses: list[TranslatedClause] = []

    for step_index, about in query.about_clauses():
        pattern = query.pattern_up_to(step_index).concatenated(about.relative)
        sids = sids_for_pattern(summary, pattern, vague=vague)

        weights: dict[str, float] = {}
        excluded: list[str] = []
        phrases: list[tuple[str, ...]] = []
        for keyword in about.keywords:
            normalized_words = []
            for word in keyword.words:
                term = tokenizer.normalize_term(word)
                if term is None:
                    continue
                normalized_words.append(term)
                if keyword.modifier == "-":
                    excluded.append(term)
                    continue
                weight = _EMPHASIS_WEIGHT if keyword.modifier == "+" else 1.0
                weights[term] = max(weights.get(term, 0.0), weight)
            if keyword.phrase and keyword.modifier != "-" and len(normalized_words) > 1:
                phrases.append(tuple(normalized_words))

        is_target = step_index == last_step and about.is_self
        clauses.append(TranslatedClause(
            step_index=step_index,
            pattern=pattern,
            sids=frozenset(sids),
            term_weights=tuple(sorted(weights.items())),
            excluded_terms=tuple(excluded),
            is_target=is_target,
            phrases=tuple(phrases),
        ))

    comparisons = []
    for step_index, comparison in query.comparison_clauses():
        step_pattern = query.pattern_up_to(step_index)
        pattern = step_pattern.concatenated(comparison.relative)
        comparisons.append(TranslatedComparison(
            step_index=step_index,
            pattern=pattern,
            sids=frozenset(sids_for_pattern(summary, pattern, vague=vague)),
            clause=comparison,
            step_sids=frozenset(sids_for_pattern(summary, step_pattern,
                                                 vague=vague)),
        ))

    target_pattern = query.full_pattern()
    target_sids = sids_for_pattern(summary, target_pattern, vague=vague)
    return TranslatedQuery(
        query=query,
        target_pattern=target_pattern,
        target_sids=frozenset(target_sids),
        clauses=tuple(clauses),
        comparisons=tuple(comparisons),
    )


#: Translations one summary keeps; a full memo is emptied, not evicted.
MEMO_CAPACITY = 1024


def translate_memoized(query: str | NexiQuery, summary: PartitionSummary,
                       tokenizer: Tokenizer | None = None, *,
                       vague: bool = True) -> TranslatedQuery:
    """:func:`translate_query` of *query*, parsed first when it is text.

    A text's translation depends only on the text, ``vague``, the
    tokenizer and the summary, so it is kept in the summary's memo
    (``summary.translations``) under ``(text, vague, tokenizer)``: the
    text is parsed and translated on a miss only.  The summary empties
    its memo when it changes (:meth:`PartitionSummary.extend`), and a
    memo holding :data:`MEMO_CAPACITY` translations is emptied before
    the next is stored.  A text that does not parse is never stored, so
    it raises every time; a parsed :class:`NexiQuery` is translated
    afresh.
    """
    if not isinstance(query, str):
        return translate_query(query, summary, tokenizer, vague=vague)
    memo = summary.translations
    key = (query, vague, tokenizer)
    translated = memo.get(key)
    if translated is None:
        translated = translate_query(parse_nexi(query), summary, tokenizer,
                                     vague=vague)
        with summary.memo_lock:  # concurrent misses must not pass the bound
            if len(memo) >= MEMO_CAPACITY:
                memo.clear()
            memo[key] = translated
    return translated

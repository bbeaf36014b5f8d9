"""Greedy index selection (paper §4.2).

"In the greedy approach, we iteratively add indexes.  Each time we add
the index that seems to provide the largest improvement, i.e., the
highest ratio of the reduction in time to the addition of space.  [...]
Indexes are added until all the queries are supported or all the
possible gain-cost ratios are zero."

Theorem 4.2 states the result is a 2-approximation of the optimal
selection.  For the guarantee to actually hold for this multiple-choice
knapsack, the greedy must be run the textbook way:

1. per query, drop options larger than the whole budget, then prune
   *dominated* options (never take a bigger, weaker index) and
   *LP-dominated* ones (an option whose upgrade has a better ratio
   than the option itself can be skipped straight to the upgrade —
   which is only sound when the upgrade can ever be taken, hence the
   budget filter first);
2. greedily consume the remaining options and upgrades in decreasing
   gain-per-byte order (an upgrade replaces the query's current choice,
   paying only the size difference — this is what lets the greedy
   revisit a query instead of locking in its first pick);
3. return the better of the greedy accumulation and the single most
   valuable feasible index.

Property-based tests compare the result against a brute-force optimum
(``T_o ≤ 2·T_G``) on random instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import OptimizationError
from .measure import QueryCosts
from .selection import IndexChoice, SelectionPlan, options_from_costs

__all__ = ["GreedyIndexSelector"]


@dataclass(frozen=True)
class _Item:
    """One greedy step: take *choice* for its query (possibly replacing
    *upgrades_from*), paying *size_delta* for *gain_delta*."""

    query_id: str
    choice: IndexChoice
    upgrades_from: IndexChoice | None
    gain_delta: float
    size_delta: int

    @property
    def ratio(self) -> float:
        if self.size_delta <= 0:
            return float("inf")
        return self.gain_delta / self.size_delta


def _frontier(options: list[IndexChoice]) -> list[IndexChoice]:
    """The efficient frontier of one query's options (≤ 2 here, but the
    logic is general): increasing size, increasing gain, decreasing
    incremental ratio."""
    candidates = sorted((o for o in options if o.gain > 0),
                        key=lambda o: (o.size, -o.gain))
    frontier: list[IndexChoice] = []
    for option in candidates:
        # dominated: some kept option is no larger and no weaker
        if any(kept.size <= option.size and kept.gain >= option.gain
               for kept in frontier):
            continue
        frontier.append(option)
    # enforce concavity (LP-dominance): drop options whose upgrade has a
    # better ratio than the option itself.
    changed = True
    while changed and len(frontier) > 1:
        changed = False
        for i in range(len(frontier) - 1):
            small, large = frontier[i], frontier[i + 1]
            base_ratio = (float("inf") if small.size == 0
                          else small.gain / small.size)
            step = large.size - small.size
            step_ratio = (float("inf") if step <= 0
                          else (large.gain - small.gain) / step)
            if step_ratio >= base_ratio:
                frontier.pop(i)
                changed = True
                break
    return frontier


class GreedyIndexSelector:
    """The paper's greedy 2-approximation (multiple-choice knapsack form)."""

    name = "greedy"

    def select(self, costs: dict[str, QueryCosts], disk_budget: int, *,
               compression: bool = False) -> SelectionPlan:
        if disk_budget < 0:
            raise OptimizationError("disk budget must be non-negative")
        per_query = options_from_costs(costs, compression=compression)

        items: list[_Item] = []
        for query_id, options in sorted(per_query.items()):
            frontier = _frontier([option for option in options
                                  if option.size <= disk_budget])
            previous: IndexChoice | None = None
            for option in frontier:
                gain_delta = option.gain - (previous.gain if previous else 0.0)
                size_delta = option.size - (previous.size if previous else 0)
                items.append(_Item(query_id, option, previous,
                                   gain_delta, size_delta))
                previous = option
        items.sort(key=lambda item: (-item.ratio, item.query_id,
                                     item.choice.kind,
                                     item.choice.compression))

        remaining = disk_budget
        current: dict[str, IndexChoice] = {}
        for item in items:
            if item.gain_delta <= 0:
                continue
            # an upgrade only applies on top of its prerequisite choice
            if item.upgrades_from is not None and \
                    current.get(item.query_id) != item.upgrades_from:
                continue
            if item.upgrades_from is None and item.query_id in current:
                continue
            if item.size_delta > remaining:
                continue
            current[item.query_id] = item.choice
            remaining -= item.size_delta

        greedy_plan = SelectionPlan(
            choices=sorted(current.values(), key=lambda c: c.query_id),
            disk_budget=disk_budget, method=self.name)

        # 2-approximation safeguard: the single most valuable feasible
        # index may beat the ratio-greedy accumulation.
        best_single: IndexChoice | None = None
        for options in per_query.values():
            for option in options:
                if option.size <= disk_budget and (
                        best_single is None or option.gain > best_single.gain):
                    best_single = option
        if best_single is not None and best_single.gain > greedy_plan.total_gain:
            return SelectionPlan(choices=[best_single], disk_budget=disk_budget,
                                 method=self.name)
        return greedy_plan

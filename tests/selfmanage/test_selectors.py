"""Tests for index selection: exact ILP, greedy 2-approximation.

Includes property-based comparisons of the branch-and-bound against a
brute-force enumeration, and of the greedy result against the optimum
(Theorem 4.2: T_o ≤ 2 · T_G).
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import OptimizationError
from repro.selfmanage import (
    GreedyIndexSelector,
    IlpIndexSelector,
    QueryCosts,
    options_from_costs,
)


def make_costs(rows):
    """rows: (query_id, freq, t_era, t_merge, t_ta, s_rpl, s_erpl)."""
    return {row[0]: QueryCosts(*row) for row in rows}


def brute_force_optimum(costs, budget, compression=False):
    """Enumerate every feasible selection; return the best total gain."""
    per_query = options_from_costs(costs, compression=compression)
    queries = sorted(per_query)
    best = 0.0
    option_lists = [per_query[q] + [None] for q in queries]
    for combo in itertools.product(*option_lists):
        chosen = [c for c in combo if c is not None]
        if sum(c.size for c in chosen) <= budget:
            best = max(best, sum(c.gain for c in chosen))
    return best


class TestQueryCosts:
    def test_deltas(self):
        cost = QueryCosts("q", 0.5, t_era=100.0, t_merge=10.0, t_ta=150.0,
                          s_rpl=5, s_erpl=7)
        assert cost.delta_merge == 90.0
        assert cost.delta_ta == 0.0  # TA slower than ERA -> no saving
        assert cost.weighted_delta_merge == 45.0

    def test_options_drop_zero_gain(self):
        costs = make_costs([("q", 1.0, 100.0, 10.0, 150.0, 5, 7)])
        options = options_from_costs(costs)
        kinds = [o.kind for o in options["q"]]
        assert kinds == ["erpl"]


class TestIlpSelector:
    def test_respects_budget(self):
        costs = make_costs([
            ("a", 0.5, 100, 10, 20, 50, 60),
            ("b", 0.5, 100, 5, 30, 40, 80),
        ])
        plan = IlpIndexSelector().select(costs, disk_budget=70)
        assert plan.total_size <= 70

    def test_zero_budget_empty_plan(self):
        costs = make_costs([("a", 1.0, 100, 10, 20, 50, 60)])
        plan = IlpIndexSelector().select(costs, 0)
        assert plan.choices == []

    def test_negative_budget_rejected(self):
        with pytest.raises(OptimizationError):
            IlpIndexSelector().select({}, -1)

    def test_one_choice_per_query(self):
        costs = make_costs([("a", 1.0, 100, 10, 20, 10, 10)])
        plan = IlpIndexSelector().select(costs, 1000)
        assert len(plan.choices) == 1  # cannot take both rpl and erpl

    def test_picks_better_option(self):
        # Merge saves 90, TA saves 50, same size: plan must choose ERPL.
        costs = make_costs([("a", 1.0, 100, 10, 50, 20, 20)])
        plan = IlpIndexSelector().select(costs, 20)
        assert plan.choices[0].kind == "erpl"

    def test_knapsack_tradeoff(self):
        # One big saver vs two small savers that together beat it.
        costs = make_costs([
            ("big", 1 / 3, 300, 0, 300, 100, 100),   # gain 100, size 100
            ("s1", 1 / 3, 240, 0, 240, 60, 60),      # gain 80, size 60
            ("s2", 1 / 3, 240, 0, 240, 60, 60),      # gain 80, size 60
        ])
        plan = IlpIndexSelector().select(costs, 120)
        assert plan.supported_queries() == {"s1", "s2"}

    @given(st.lists(
        st.tuples(st.floats(0.1, 1.0), st.integers(0, 200),
                  st.integers(0, 200), st.integers(1, 50), st.integers(1, 50)),
        min_size=1, max_size=6), st.integers(0, 120))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, rows, budget):
        costs = {}
        for index, (freq, dm, dta, s_rpl, s_erpl) in enumerate(rows):
            t_era = 500.0
            costs[f"q{index}"] = QueryCosts(
                f"q{index}", freq, t_era, t_era - dm, t_era - dta,
                s_rpl, s_erpl)
        plan = IlpIndexSelector().select(costs, budget)
        assert plan.total_size <= budget
        optimum = brute_force_optimum(costs, budget)
        assert plan.total_gain == pytest.approx(optimum, abs=1e-9)


class TestGreedySelector:
    def test_respects_budget(self):
        costs = make_costs([
            ("a", 0.5, 100, 10, 20, 50, 60),
            ("b", 0.5, 100, 5, 30, 40, 80),
        ])
        plan = GreedyIndexSelector().select(costs, disk_budget=70)
        assert plan.total_size <= 70

    def test_takes_best_ratio_first(self):
        costs = make_costs([
            ("cheap", 0.5, 100, 0, 100, 10, 10),   # gain 50, size 10
            ("bulky", 0.5, 300, 0, 300, 100, 100),  # gain 150, size 100
        ])
        plan = GreedyIndexSelector().select(costs, 10)
        assert plan.supported_queries() == {"cheap"}

    def test_single_item_safeguard(self):
        # Ratio-greedy would grab the small item and strand the budget;
        # the safeguard takes the big one instead.
        costs = make_costs([
            ("small", 0.5, 12, 0, 12, 1, 1),       # gain 6, size 1, ratio 6
            ("large", 0.5, 200, 0, 200, 100, 100),  # gain 100, size 100, ratio 1
        ])
        plan = GreedyIndexSelector().select(costs, 100)
        assert plan.total_gain >= 100

    def test_stops_when_nothing_fits(self):
        costs = make_costs([("a", 1.0, 100, 10, 20, 500, 600)])
        plan = GreedyIndexSelector().select(costs, 10)
        assert plan.choices == []

    @given(st.lists(
        st.tuples(st.floats(0.1, 1.0), st.integers(0, 200),
                  st.integers(0, 200), st.integers(1, 50), st.integers(1, 50)),
        min_size=1, max_size=6), st.integers(0, 120),
        st.none() | st.tuples(st.integers(0, 50), st.integers(1, 4)))
    # An upgrade that can never fit must not LP-dominate the option
    # that does: q1 and q2 each keep a 2-byte ERPL below a 6-byte RPL.
    @example(rows=[(1.0, 0, 1, 1, 1), (1.0, 1, 3, 6, 2), (1.0, 1, 3, 6, 2)],
             budget=5, zlib=None)
    @example(rows=[(1.0, 0, 1, 1, 1), (1.0, 1, 3, 6, 2), (1.0, 1, 3, 6, 2)],
             budget=5, zlib=(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_two_approximation(self, rows, budget, zlib):
        """Theorem 4.2: the optimum saves at most twice the greedy —
        over the flat options, and over the four-way ``compression``
        option set (*zlib* = decompress penalty, size divisor)."""
        costs = {}
        for index, (freq, dm, dta, s_rpl, s_erpl) in enumerate(rows):
            t_era = 500.0
            cost = QueryCosts(f"q{index}", freq, t_era, t_era - dm,
                              t_era - dta, s_rpl, s_erpl)
            if zlib is not None:
                penalty, divisor = zlib
                cost = replace(cost,
                               t_merge_zlib=cost.t_merge + penalty,
                               t_ta_zlib=cost.t_ta + penalty,
                               s_rpl_zlib=max(1, s_rpl // divisor),
                               s_erpl_zlib=max(1, s_erpl // divisor))
            costs[cost.query_id] = cost
        compression = zlib is not None
        greedy = GreedyIndexSelector().select(costs, budget,
                                              compression=compression)
        optimum = brute_force_optimum(costs, budget, compression)
        assert greedy.total_size <= budget
        assert optimum <= 2 * greedy.total_gain + 1e-9

    def test_plan_describe(self):
        costs = make_costs([("a", 1.0, 100, 10, 20, 10, 10)])
        plan = GreedyIndexSelector().select(costs, 100)
        text = "\n".join(plan.describe())
        assert "greedy" in text and "a" in text

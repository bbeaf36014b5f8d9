"""CostModel: integer counting, read-time pricing, routing, muting."""

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import Charge, CostModel, free_cost_model

#: Linear charges taking a count: (method, counter, Charge constant).
LINEAR = (
    ("seek", "seeks", "SEEK"),
    ("page_read", "page_reads", "PAGE_READ"),
    ("page_hit", "page_hits", "PAGE_HIT"),
    ("tuple_read", "tuples_read", "TUPLE_READ"),
    ("tuple_write", "tuples_written", "TUPLE_WRITE"),
    ("compare", "comparisons", "COMPARE"),
    ("score_combine", "score_combines", "SCORE_COMBINE"),
    ("block_read", "blocks_read", "BLOCK_READ"),
    ("block_decompress", "blocks_decompressed", "BLOCK_DECOMPRESS"),
    ("block_skip", "blocks_skipped", None),
    ("heap_insert", "heap_inserts", "HEAP_STEP"),
)


# ----------------------------------------------------------------------
# Counting and pricing
# ----------------------------------------------------------------------
class TestPricing:
    @pytest.mark.parametrize(("method", "counter", "constant"), LINEAR)
    def test_linear_charge_counts_and_prices(self, method, counter, constant):
        model = CostModel()
        getattr(model, method)()
        getattr(model, method)(4)
        assert getattr(model.counters, counter) == 5
        unit = getattr(Charge, constant) if constant else 0.0
        assert model.total_cost == 5 * unit
        assert set(model.counters.as_dict()) == set(
            CostModel().counters.as_dict())

    def test_block_decode_counts_the_block_and_its_entries(self):
        model = CostModel()
        model.block_decode(128)
        assert model.counters.blocks_decoded == 1
        assert model.counters.entries_decoded == 128
        assert model.base_cost == (Charge.BLOCK_DECODE
                                   + 128 * Charge.ENTRY_DECODE)

    def test_block_read_factor_scales_the_price_not_the_counter(self):
        model = CostModel()
        model.block_read(2, factor=1.5)
        assert model.counters.blocks_read == 2
        assert model.base_cost == 3.0 * Charge.BLOCK_READ

    def test_nonlinear_charges_stay_per_call(self):
        model = CostModel()
        model.sort(1)  # nothing to sort
        model.sort(8)
        model.heap_remove(6)
        assert model.counters.sort_elements == 8
        assert model.base_cost == Charge.SORT_STEP * 8 * math.log2(8)
        assert model.heap_cost == Charge.HEAP_STEP * (1 + math.log2(8))
        assert model.ideal_cost == model.base_cost
        assert model.total_cost == model.base_cost + model.heap_cost

    def test_counters_dict_has_the_fifteen_keys_in_order(self):
        assert list(CostModel().counters.as_dict()) == [
            "seeks", "page_reads", "page_hits", "tuples_read",
            "tuples_written", "comparisons", "heap_inserts", "heap_removes",
            "sort_elements", "score_combines", "blocks_read",
            "blocks_decoded", "blocks_skipped", "entries_decoded",
            "blocks_decompressed"]

    def test_charge_subclass_is_honoured_at_read_time(self):
        class Dear(Charge):
            COMPARE = 7.0

        model = CostModel()
        model.compare(3)
        assert model.base_cost == 3 * Charge.COMPARE
        model.charge = Dear  # priced on reading, not on charging
        assert model.base_cost == 21.0
        assert CostModel(charge=Dear).charge is Dear

    def test_free_model_stays_free_under_a_backend_factor(self):
        model = free_cost_model()
        model.block_read(3, factor=1.5)
        model.block_decode(64)
        model.sort(100)
        model.heap_remove(9)
        assert model.total_cost == 0.0
        assert model.counters.blocks_read == 3


# ----------------------------------------------------------------------
# Order and granularity independence
# ----------------------------------------------------------------------
@st.composite
def rebatched_charges(draw):
    """A multiset of linear charges, and the same multiset split into
    arbitrary parts in an arbitrary order."""
    charges = draw(st.lists(
        st.tuples(st.sampled_from([row[0] for row in LINEAR]),
                  st.integers(0, 5000)), max_size=30))
    parts = []
    for method, count in charges:
        cuts = sorted(draw(st.lists(st.integers(0, count), max_size=4)))
        parts.extend((method, hi - lo)
                     for lo, hi in zip([0, *cuts], [*cuts, count]))
    return charges, draw(st.permutations(parts))


class TestOrderIndependence:
    @given(rebatched_charges())
    @settings(max_examples=200, deadline=None)
    def test_any_permutation_and_rebatching_prices_identically(self, data):
        charges, parts = data
        whole, pieces = CostModel(), CostModel()
        for method, count in charges:
            getattr(whole, method)(count)
        for method, count in parts:
            if count == 1:
                getattr(pieces, method)()  # the default-argument form
            else:
                getattr(pieces, method)(count)
        assert pieces.counters.as_dict() == whole.counters.as_dict()
        assert pieces.base_cost == whole.base_cost  # bit-identical
        assert pieces.heap_cost == whole.heap_cost
        assert pieces.total_cost == whole.total_cost

    def test_n_single_compares_equal_one_bulk_compare(self):
        # 0.05 is not a binary fraction: a running float sum drifts.
        singles, bulk = CostModel(), CostModel()
        for _ in range(1001):
            singles.compare()
        bulk.compare(1001)
        assert singles.base_cost == bulk.base_cost == 1001 * Charge.COMPARE


# ----------------------------------------------------------------------
# Reading: snapshot / since / reset
# ----------------------------------------------------------------------
class TestMeters:
    def test_since_prices_the_interval_alone(self):
        model = CostModel()
        model.seek(1000)
        model.sort(50)
        snap = model.snapshot()
        model.compare(3)
        model.block_decode(10)
        model.heap_insert()
        spent = model.since(snap)
        assert spent.base_cost == (3 * Charge.COMPARE + Charge.BLOCK_DECODE
                                   + 10 * Charge.ENTRY_DECODE)
        assert spent.heap_cost == Charge.HEAP_STEP
        assert spent.total_cost == spent.base_cost + spent.heap_cost
        assert (spent.blocks_decoded, spent.entries_decoded) == (1, 10)
        assert spent.counters.seeks == 0

    def test_snapshot_is_not_live(self):
        model = CostModel()
        snap = model.snapshot()
        model.seek()
        assert snap.base_cost == 0.0 and snap.counters.seeks == 0

    def test_reset_clears_every_meter(self):
        model = CostModel()
        model.seek()
        model.block_read(factor=1.5)
        model.sort(9)
        model.heap_remove(4)
        model.reset()
        assert model.total_cost == 0.0
        assert not any(model.counters.as_dict().values())


# ----------------------------------------------------------------------
# Muting and thread-scoped routing
# ----------------------------------------------------------------------
class _Untouchable:
    """Stands in for the thread-local: any access is a failure."""

    def __getattribute__(self, name):
        raise AssertionError("the thread-local was consulted")


class TestRouting:
    def test_unscoped_model_never_touches_the_thread_local(self):
        model = CostModel()
        model._scoped = _Untouchable()
        model.compare(2)
        with model.muted():
            model.seek()
        assert model.resolve() is model
        assert model.total_cost == 2 * Charge.COMPARE
        assert model.since(model.snapshot()).total_cost == 0.0

    def test_resolve_returns_what_this_thread_charges(self):
        shared, private = CostModel(), CostModel()
        assert shared.resolve() is shared
        with shared.scoped(private):
            held = shared.resolve()
            assert held is private
            held.compare(5)  # charged directly, no routing hop
        assert shared.resolve() is shared
        assert private.counters.comparisons == 5

    def test_scoped_and_unscoped_threads_charge_their_own_meters(self):
        shared, private = CostModel(), CostModel()
        rounds = 2000
        entered, done = threading.Event(), threading.Event()

        def unscoped():
            entered.wait(timeout=5)
            for _ in range(rounds):
                shared.compare()
                shared.seek(2)
            done.set()

        thread = threading.Thread(target=unscoped)
        thread.start()
        with shared.scoped(private):
            entered.set()
            for _ in range(rounds):
                shared.compare()
                shared.heap_insert()
            assert done.wait(timeout=10)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert shared.counters.comparisons == rounds
        assert shared.counters.seeks == 2 * rounds
        assert shared.counters.heap_inserts == 0
        assert private.counters.comparisons == rounds
        assert private.counters.heap_inserts == rounds
        assert private.counters.seeks == 0

    def test_nested_scopes_are_restored_on_exit(self):
        shared, first, second = CostModel(), CostModel(), CostModel()
        with shared.scoped(first):
            with pytest.raises(RuntimeError):
                with shared.scoped(second):
                    shared.seek()
                    raise RuntimeError("boom")
            shared.seek()
            with shared.scoped(shared):  # routing suspended
                shared.seek()
        shared.seek()
        assert (first.counters.seeks, second.counters.seeks) == (1, 1)
        assert shared.counters.seeks == 2
        assert shared._scopes == 0

    def test_muted_outside_a_scope_mutes_this_model(self):
        model = CostModel()
        with model.muted():
            with model.muted():
                model.seek()
            model.sort(10)
            model.heap_remove(3)
        model.seek()
        assert model.counters.as_dict()["seeks"] == 1
        assert model.total_cost == Charge.SEEK

    def test_muted_inside_a_scope_mutes_the_private_model_only(self):
        shared, private = CostModel(), CostModel()
        with shared.scoped(private):
            with shared.muted():
                shared.seek()
                private.seek()
            shared.seek()
        shared.seek()
        assert private.counters.seeks == 1
        assert shared.counters.seeks == 1

    def test_meter_reads_route_but_own_meters_do_not(self):
        shared, private = CostModel(), CostModel()
        shared.page_read()
        with shared.scoped(private):
            shared.page_read(2)
            assert shared.total_cost == private.total_cost
            assert shared.base_cost == Charge.PAGE_READ  # its own meter
            shared.reset()  # routed: clears the private model
        assert private.counters.page_reads == 0
        assert shared.counters.page_reads == 1

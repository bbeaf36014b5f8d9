"""Harness self-test.  Run explicitly (tier-1 ``testpaths`` stays ``tests``):

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

import json
import os
import re
import subprocess
import sys
import threading
import time

import pytest

from ledger import spec, speed, stats
from ledger.trace import TARGETS, Span, Tracer, self_times

RUN = os.path.join(spec.HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, expected", [
    (19, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_tail_reports_percentile_and_value():
    values = [float(v) for v in range(1, 201)]
    pct, value = stats.tail(values)
    assert pct == 95.0
    assert value == pytest.approx(stats.percentile(values, 95.0))
    assert sum(v > value for v in values) >= stats.MIN_BEYOND


def test_percentile_interpolates_and_median_of_nothing_is_zero():
    assert stats.percentile([10.0, 20.0], 50.0) == 15.0
    assert stats.percentile([7.0], 95.0) == 7.0
    assert stats.median([]) == 0.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_measure_carries_its_sample_count():
    assert stats.Measure(1.5, 30).n == 30


def test_spread_is_interquartile_distance_over_median():
    values = [float(v) for v in range(1, 11)]
    assert stats.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert stats.spread([3.0]) == 0.0


def test_interquartile_mean_is_the_mean_of_the_middle_half():
    assert stats.interquartile_mean([1, 2, 3, 4, 5, 6, 7, 1000]) == 4.5
    # five values: the middle 2.5 are half of 2, all of 3, half of 4
    assert stats.interquartile_mean([1, 2, 3, 4, 100]) == pytest.approx(3.0)
    assert stats.interquartile_mean([7.0]) == 7.0
    # two neighbours in the middle swapping places move it smoothly
    near = stats.interquartile_mean([1, 2, 10.0, 10.2, 30, 40, 50, 60])
    swapped = stats.interquartile_mean([1, 2, 10.2, 10.0, 30, 40, 50, 60])
    assert near == swapped
    with pytest.raises(ValueError):
        stats.interquartile_mean([])


def test_spearman_handles_order_and_ties():
    assert stats.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1)
    assert stats.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1)
    assert stats.spearman([1, 1, 2, 2], [1, 1, 2, 2]) == pytest.approx(1)
    assert stats.spearman([1, 1, 1], [1, 2, 3]) == 0.0


# ----------------------------------------------------------------------
# Times at reference speed
# ----------------------------------------------------------------------
def test_only_the_cpu_share_is_rescaled():
    # 100 ms of which 60 on the CPU, on a box running at two thirds speed
    assert speed.at_reference_speed(0.100, 0.060, 1.5) == pytest.approx(0.080)
    assert speed.at_reference_speed(0.100, 0.0, 1.5) == pytest.approx(0.100)
    # CPU seconds beyond the elapsed ones (two cores) count as all of it
    assert speed.at_reference_speed(0.100, 0.150, 2.0) == pytest.approx(0.050)
    assert speed.at_reference_speed(0.100, 0.060, 1.0) == pytest.approx(0.100)


def test_speed_factor_is_the_mean_slice_with_stalls_clipped():
    reference = speed.REFERENCE_SLICE_S
    assert speed.speed_factor([reference] * 9) == pytest.approx(1.0)
    assert speed.speed_factor([reference, 2 * reference]) == pytest.approx(1.5)
    # one slice descheduled for 300 ms counts as STALL_CLIP medians
    stalled = speed.speed_factor([reference] * 9 + [0.3])
    assert stalled == pytest.approx((9 + speed.STALL_CLIP) / 10)
    with pytest.raises(ValueError):
        speed.speed_factor([])


def test_meter_keeps_the_probe_at_its_share():
    meter = speed.SpeedMeter(share=0.2)
    started = time.perf_counter()
    while time.perf_counter() - started < 0.15:
        time.sleep(0.01)
        meter.catch_up()
    elapsed = time.perf_counter() - started
    assert len(meter.stamps) == len(meter.slices) > 0
    assert 0.1 * elapsed < meter.seconds < 0.3 * elapsed
    since = meter.mark()
    meter.sample()
    assert meter.factor(since) == pytest.approx(
        meter.slices[-1] / speed.REFERENCE_SLICE_S)
    idle = speed.SpeedMeter()
    idle.catch_up()
    assert idle.slices == []


def test_a_woken_thread_takes_the_same_few_slices_every_time():
    meter = speed.SpeedMeter()
    meter.after_wait()
    assert len(meter.slices) == speed.SLICES_AFTER_WAIT
    # the discarded first slice is harness time too
    assert meter.seconds > sum(meter.slices)


def test_background_probe_samples_evenly_and_stops():
    meter = speed.SpeedMeter()
    before = threading.active_count()
    with meter.in_background():
        time.sleep(6.5 * speed.BACKGROUND_PERIOD)
    assert threading.active_count() == before
    turns = len(meter.slices) // speed.SLICES_AFTER_WAIT
    assert 3 <= turns <= 7
    taken = len(meter.slices)
    time.sleep(2 * speed.BACKGROUND_PERIOD)
    assert len(meter.slices) == taken


def test_a_long_stretch_gets_a_speed_factor_of_its_own():
    meter = speed.SpeedMeter()
    reference = speed.REFERENCE_SLICE_S
    # 20 slices at reference speed, then 10 at half speed from t = 100
    meter.stamps = [float(t) for t in range(20)] + [100.0 + t
                                                    for t in range(10)]
    meter.slices = [reference] * 20 + [2 * reference] * 10
    assert meter.factor_between(100.0, 109.0) == pytest.approx(2.0)
    assert meter.factor_between(0.0, 19.0) == pytest.approx(1.0)
    # fewer than MIN_LOCAL_SLICES inside: the whole run's factor
    assert speed.MIN_LOCAL_SLICES > 3
    assert meter.factor_between(100.0, 102.0) == pytest.approx(4.0 / 3.0)


def test_process_cpu_seconds_counts_this_process():
    before = speed.process_cpu_seconds(os.getpid())
    started = time.process_time()
    while time.process_time() - started < 0.1:
        pass
    assert speed.process_cpu_seconds(os.getpid()) - before >= 0.05


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def span(span_id, parent, start, end, thread=1):
    return Span(span_id, parent, 1, f"s{span_id}", thread, start, end)


def test_self_time_nested():
    times = self_times([span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 4.0),
                        span(3, 2, 2.0, 3.0)])
    assert times == {1: pytest.approx(7.0), 2: pytest.approx(2.0),
                     3: pytest.approx(1.0)}


def test_self_time_counts_overlapping_children_once():
    times = self_times([span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 5.0),
                        span(3, 1, 3.0, 7.0), span(4, 1, 8.0, 9.0)])
    # children cover [1, 7] and [8, 9]: 7 of the parent's 10 seconds
    assert times[1] == pytest.approx(3.0)


def test_self_time_children_on_other_threads_and_past_the_parent():
    times = self_times([
        span(1, 0, 0.0, 10.0, thread=1),
        span(2, 1, 2.0, 6.0, thread=2),   # a worker, in parallel with 3
        span(3, 1, 4.0, 12.0, thread=3),  # outlives the parent: clipped
    ])
    assert times[1] == pytest.approx(2.0)
    assert times[3] == pytest.approx(8.0)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def patched_slots():
    """Every (namespace, attribute) the full target table patches."""
    probe = Tracer()
    probe.install(TARGETS)
    try:
        return [(namespace, attr) for namespace, attr, _ in probe._patched]
    finally:
        probe.remove()


def test_install_and_remove_leave_attributes_identical():
    slots = patched_slots()
    assert len(slots) >= len(TARGETS)
    before = [vars(namespace)[attr] for namespace, attr in slots]
    tracer = Tracer()
    with tracer.installed(TARGETS):
        during = [vars(namespace)[attr] for namespace, attr in slots]
        assert all(a is not b for a, b in zip(before, during))
        with pytest.raises(RuntimeError):
            tracer.install(TARGETS)
    after = [vars(namespace)[attr] for namespace, attr in slots]
    assert all(a is b for a, b in zip(before, after))


def test_function_targets_are_patched_where_they_were_imported():
    import repro.retrieval.engine as engine_module
    import repro.storage.blocks as blocks_module
    from repro.backend.compression import compress
    from repro.nexi.parser import parse_nexi

    with Tracer().installed(TARGETS):
        assert engine_module.parse_nexi is not parse_nexi
        assert blocks_module._compress is not compress
    assert engine_module.parse_nexi is parse_nexi
    assert blocks_module._compress is compress


def test_spans_nest_and_share_a_request():
    import repro.retrieval.engine as engine_module

    tracer = Tracer()
    with tracer.installed(TARGETS), tracer.span("root") as root:
        engine_module.parse_nexi("//sec[about(., retrieval)]")
    parse, outer = tracer.spans
    assert (parse.name, parse.parent, parse.request) == ("nexi.parse", root,
                                                         root)
    assert outer.start <= parse.start <= parse.end <= outer.end


def test_executor_hop_keeps_the_request_together():
    from repro.service.executor import BoundedExecutor

    tracer = Tracer()
    seen = {}

    def task():
        seen["thread"] = threading.get_ident()
        time.sleep(0.01)
        return 7

    with tracer.installed(TARGETS), BoundedExecutor(workers=1) as executor, \
            tracer.span("request") as root:
        assert executor.submit(task).result(timeout=5) == 7
    by_name = {s.name: s for s in tracer.spans}
    wait, ran = (by_name["service.executor.queue_wait"],
                 by_name["service.executor.task"])
    assert wait.parent == ran.parent == root
    assert wait.request == ran.request == root
    assert ran.thread == seen["thread"] != threading.get_ident()
    assert ran.seconds >= 0.01
    assert self_times(tracer.spans)[root] < by_name["request"].seconds


# ----------------------------------------------------------------------
# The metric dictionary and BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_is_generated_from_the_spec():
    assert spec.load_benchmark_json() == spec.benchmark_json()


def test_names_units_and_limits_fit_the_contract():
    document = spec.load_benchmark_json()
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for row in document["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in document["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in document["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in document["end_to_end"] + document["per_layer"]:
        assert UNIT.fullmatch(row["unit"])
        assert row["better"] in ("lower", "higher")
    setup = next(row for row in document["end_to_end"]
                 if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(r["bound"] for r in document["end_to_end"])
    assert len(json.dumps(document)) < 64 * 1024


def test_the_driver_list_leaves_out_only_search_2x2():
    document = spec.load_benchmark_json()
    assert [row["name"] for row in document["workloads"]] == list(spec.LISTED)
    assert set(spec.WORKLOADS) - set(spec.LISTED) == {"search_2x2"}
    listed = {row["name"] for row in document["per_layer"]}
    everything = {metric.name for metric in spec.PER_LAYER}
    assert everything - listed == {
        metric.name for metric in spec.PER_LAYER
        if metric.workloads == ("search_2x2",)}
    # an unlisted workload still reports what it alone measures
    own = {metric.name for metric in
           spec.reported(spec.PER_LAYER, "search_2x2")}
    assert own == everything


def test_every_metric_applies_to_known_workloads():
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert metric.workloads
        assert set(metric.workloads) <= set(spec.WORKLOADS)
    for metric in spec.END_TO_END:
        assert set(metric.workloads) == set(spec.WORKLOADS)


# ----------------------------------------------------------------------
# End to end, small
# ----------------------------------------------------------------------
def run_ledger(*arguments):
    return subprocess.run([sys.executable, RUN, *arguments],
                          capture_output=True, text=True, timeout=300,
                          check=False)


@pytest.mark.parametrize("workload", ["search_cached", "method_grid"])
@pytest.mark.parametrize("traced", [0, 1])
def test_one_run_prints_every_named_metric(workload, traced):
    completed = run_ledger("--workload", workload, "--seed", "7",
                           "--trace", str(traced), "--smoke")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 < result["attempted"]
    expected = spec.reported(spec.PER_LAYER if traced else spec.END_TO_END)
    listed = spec.load_benchmark_json()["per_layer" if traced
                                        else "end_to_end"]
    assert [metric.name for metric in expected] == [row["name"]
                                                    for row in listed]
    assert set(result["metrics"]) == {metric.name for metric in expected}
    for metric in expected:
        reported = result["metrics"][metric.name]
        assert reported["unit"] == metric.unit
        assert f"  {metric.name} " in completed.stdout or \
            workload not in metric.workloads
    if not traced:
        assert all(row["value"] > 0 for row in result["metrics"].values())


def test_smoke_run_of_the_whole_ledger(tmp_path):
    started = time.perf_counter()
    out, trace_out = tmp_path / "out.json", tmp_path / "trace.json"
    completed = run_ledger("--smoke", "--out", str(out),
                           "--trace-out", str(trace_out))
    elapsed = time.perf_counter() - started
    assert completed.returncode == 0, completed.stderr
    # Twelve child runs; about 70 s on the 2-core box the ledger was
    # defined on (each serve child spends ~1 s of warm-up and ~2.7 s of
    # traced list in the 44 ms-per-reply HTTP path it exists to show).
    assert elapsed < 150
    summary = json.loads(completed.stdout.splitlines()[-1])
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    assert summary["fail_share"] == 0
    assert set(summary["workloads"]) == set(spec.WORKLOADS)
    assert json.loads(out.read_text()) == summary
    traces = json.loads(trace_out.read_text())
    assert traces["method_grid"]["traced"]["agreement"]["cells"]
    assert traces["search_2x2"]["traced"]["spans"]
    assert traces["search_2x2"]["measured"]["reader"]
    assert not os.path.exists(os.path.join(spec.REPO_ROOT, ".bench_tmp"))


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the ledger there is
    nothing to measure: exit non-zero, print no result."""
    import shutil

    shutil.copytree(spec.HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(spec.SPEC_PATH, tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "search_1x1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert completed.returncode != 0
    assert completed.stdout == ""

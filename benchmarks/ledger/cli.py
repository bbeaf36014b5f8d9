"""The ledger's command line (``run.py`` is the script that starts it).

Two ways to call it:

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload (what ``BENCHMARK.json``'s ``command`` is
    given).  ``--trace 0`` measures the end-to-end metrics with tracing
    off; ``--trace 1`` runs the short traced pass for the per-layer
    metrics.  The last line of standard output is one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 benchmarks/ledger/run.py [--seed 42] [--repeat N] [--out FILE] [--trace-out FILE]``
    The whole ledger: every workload, measured then traced, each as a
    child process of the first form; prints every metric by name with
    unit, sample count and bound, and ends with a JSON summary whose
    last key is ``"claim": null``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

from collections.abc import Iterator

from . import spec, stats
from .inputs import Sizes
from .stats import Measure
from .workloads import Context, HarnessError, Outcome, run

_SRC = os.path.join(spec.REPO_ROOT, "src")

#: Scratch lives inside the checkout (the benchmark reads and writes
#: nowhere else) and is listed in ``.gitignore``.
TMP_PARENT = os.path.join(spec.REPO_ROOT, ".bench_tmp")
SMOKE_SECONDS = 2.0


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[str]:
    """A directory under ``.bench_tmp/`` that is gone on every exit path
    (and takes ``.bench_tmp/`` with it when no other run is using it)."""
    os.makedirs(TMP_PARENT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=TMP_PARENT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_PARENT)


def write_json(path: str | None, payload: dict) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="run this one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window (default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced pass, per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole ledger N times; print min / "
                             "median / max per end-to-end metric")
    parser.add_argument("--smoke", action="store_true",
                        help="20-document corpus, 2 s windows")
    parser.add_argument("--out", default=None,
                        help="write the result JSON here")
    parser.add_argument("--trace-out", default=None,
                        help="write spans and the cost-model agreement "
                             "table here")
    parser.add_argument("--print-spec", action="store_true",
                        help="print BENCHMARK.json as spec.py defines it")
    return parser


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def expected_metrics(traced: bool, workload: str) -> tuple[spec.Metric, ...]:
    return spec.reported(spec.PER_LAYER if traced else spec.END_TO_END,
                         workload)


def complete(outcome: Outcome, workload: str, traced: bool) -> list[str]:
    """Fill metrics that do not apply to *workload* with 0 and return
    the names that do apply but were not measured."""
    missing = []
    for metric in expected_metrics(traced, workload):
        if metric.name in outcome.metrics:
            continue
        if workload in metric.workloads:
            missing.append(metric.name)
        else:
            outcome.metrics[metric.name] = Measure(0.0, 0)
    return missing


def print_metrics(outcome: Outcome, workload: str, traced: bool) -> None:
    for metric in expected_metrics(traced, workload):
        if workload not in metric.workloads:
            continue
        measure = outcome.metrics[metric.name]
        bound = "" if metric.bound is None else f"  bound={metric.bound:g}"
        print(f"  {metric.name:<38} {measure.value:>16.4f} {metric.unit:<6}"
              f" n={measure.n:<6} {metric.better}{bound}")
    for name, measure in outcome.info.items():
        print(f"  ({name:<36}) {measure.value:>16.4f}        n={measure.n}")


def run_one(args: argparse.Namespace) -> int:
    traced = bool(args.trace)
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else float(spec.RUN_SECONDS))
    try:
        with scratch_dir(f"{args.workload}-") as tmp:
            outcome = run(Context(
                workload=args.workload, seed=args.seed, seconds=seconds,
                sizes=Sizes.smoke() if args.smoke else Sizes(),
                smoke=args.smoke, tmp=tmp, src_dir=_SRC), traced)
    except HarnessError as error:
        print(f"ledger: {args.workload}: {error}", file=sys.stderr)
        return 1
    missing = complete(outcome, args.workload, traced)
    if missing:
        print(f"ledger: {args.workload}: metrics named in BENCHMARK.json "
              f"were not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace} attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    print_metrics(outcome, args.workload, traced)
    units = {metric.name: metric.unit
             for metric in expected_metrics(traced, args.workload)}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name].value,
                           "unit": unit} for name, unit in units.items()},
    }
    write_json(args.out, {
        **result, "workload": args.workload, "seed": args.seed,
        "samples": {name: outcome.metrics[name].n for name in units},
        "info": {name: vars(m) for name, m in outcome.info.items()}})
    write_json(args.trace_out, outcome.report)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# The whole ledger
# ----------------------------------------------------------------------
def child(workload: str, traced: bool, args: argparse.Namespace,
          scratch: str) -> tuple[dict, dict]:
    """One driver-mode run as a subprocess; returns (result, trace)."""
    out = os.path.join(scratch, "out.json")
    trace_out = os.path.join(scratch, "trace.json")
    command = [sys.executable, os.path.join(spec.HERE, "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--trace", str(int(traced)), "--out", out,
               "--trace-out", trace_out]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               check=False)
    if completed.returncode != 0:
        print(completed.stdout, flush=True)
        raise HarnessError(f"{workload} trace={int(traced)} exited with "
                           f"{completed.returncode}")
    # Everything but the result line, which is read back from --out.
    print("\n".join(completed.stdout.splitlines()[:-1]), flush=True)
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    with open(trace_out, encoding="utf-8") as handle:
        return result, json.load(handle)


def run_all(args: argparse.Namespace) -> int:
    rounds: list[dict[str, dict]] = []
    traces: dict[str, dict] = {}
    attempted = failed = 0
    with scratch_dir("ledger-") as scratch:
        for _ in range(args.repeat):
            results: dict[str, dict] = {}
            for workload in spec.WORKLOADS:
                measured, raw = child(workload, False, args, scratch)
                layered, spans = child(workload, True, args, scratch)
                traces[workload] = {"measured": raw, "traced": spans}
                results[workload] = {
                    "end_to_end": measured["metrics"],
                    "per_layer": layered["metrics"],
                    "samples": {**measured["samples"], **layered["samples"]},
                }
                for part in (measured, layered):
                    attempted += part["attempted"]
                    failed += part["failed"]
            rounds.append(results)

    summary: dict = {"seed": args.seed, "repeat": args.repeat,
                     "attempted": attempted, "failed": failed,
                     "fail_share": failed / attempted if attempted else 1.0,
                     "workloads": rounds[-1]}
    if args.repeat > 1:
        print(f"\nrepeatability over {args.repeat} runs "
              f"(spread = (max - min) / median against the bound):")
        summary["repeatability"] = repeatability(rounds)
    write_json(args.trace_out, traces)
    # No gain is claimed: this change defines the yardstick.
    summary["claim"] = None
    write_json(args.out, summary)
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


def repeatability(rounds: list[dict[str, dict]]) -> dict:
    table: dict = {}
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            values = [results[workload]["end_to_end"][metric.name]["value"]
                      for results in rounds]
            middle = stats.median(values)
            span = (max(values) - min(values)) / middle if middle else 0.0
            fits = span <= (metric.bound or 0.0)
            table[f"{workload}:{metric.name}"] = {
                "min": min(values), "median": middle, "max": max(values),
                "spread": span, "bound": metric.bound, "fits": fits}
            print(f"  {workload:<14} {metric.name:<14} min={min(values):<12.4f}"
                  f" median={middle:<12.4f} max={max(values):<12.4f} "
                  f"spread={span:.3f} bound={metric.bound:g} "
                  f"{'ok' if fits else 'EXCEEDS'}")
    return table


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.print_spec:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if args.workload:
        return run_one(args)
    return run_all(args)

"""The TReX performance ledger — one command.

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

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")

if __name__ == "__main__":
    # Import the ledger as a package (its ``trace.py`` must not shadow
    # the standard library's ``trace``) and ``repro`` from this
    # checkout's sources.
    sys.path[:] = [entry for entry in sys.path
                   if os.path.abspath(entry or os.getcwd()) != _HERE]
    sys.path[:0] = [_SRC, os.path.dirname(_HERE)]
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        print(f"ledger: no program to measure: {_SRC}/repro is missing",
              file=sys.stderr)
        raise SystemExit(2)
    from ledger.cli import main
    raise SystemExit(main())

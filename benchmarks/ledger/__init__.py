"""The TReX performance ledger: six workloads in real seconds (at
reference speed) over the ``repro serve`` path, with per-layer spans
taken from outside.

See ``README.md`` in this directory; ``run.py`` is the one command.
"""

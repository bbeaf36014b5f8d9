"""Explicit builds for tests that force a strategy.

Evaluation only reads the catalog: a forced ``ta``, ``merge`` or
``wand`` run on an engine that lacks its lists raises
``MissingIndexError``.  These helpers build the universal lists first,
through the coordinator's or the engine's own warm-up path.
"""

from repro.retrieval.engine import METHOD_KINDS


def warm(engine, query, kinds=("rpl", "erpl"), *, mode="nexi"):
    """Build every universal list of *kinds* that *query* reads in
    *mode* and *engine* (a ``TrexEngine`` or a ``ShardedEngine``) lacks;
    returns the build report."""
    return engine.warm_segments(engine.missing_segments(
        engine.translate(query), tuple(kinds), mode=mode))


def warm_for(engine, query, method, *, mode="nexi"):
    """Build what a forced *method* run of *query* reads (nothing for
    ERA or ``auto``)."""
    kinds = METHOD_KINDS.get(method, ())
    if kinds:
        warm(engine, query, kinds, mode=mode)

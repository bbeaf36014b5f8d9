# repro: module[repro.shard.fixture_pragmas]
# repro: allow-file[TRX501]
"""Fixture: allowlist pragmas at line and file granularity."""


def boundary(task: object) -> object:
    try:
        return task()
    except Exception:
        return None


def emit(telemetry: object) -> None:
    # repro: allow[TRX401] fixture typo, reason documented here
    telemetry.incr("search.requets")
    telemetry.incr("search.requets")

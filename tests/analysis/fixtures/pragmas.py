# repro: module[repro.shard.fixture_pragmas]
# repro: allow-file[TRX501]
"""Fixture: allowlist pragmas at line and file granularity."""


def boundary(task: object) -> object:
    try:
        return task()
    except Exception:
        return None


class Counter:
    __guarded_by__ = {"_lock": ("hits",)}

    def bump(self) -> None:
        # repro: allow[TRX101] fixture write, reason documented here
        self.hits += 1
        self.hits += 1

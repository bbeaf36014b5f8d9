# repro: module[repro.shard.fixture_exc_bad]
"""Fixture: a broad handler on a serving path."""


def run(task: object) -> object:
    try:
        return task()
    except Exception:
        return None

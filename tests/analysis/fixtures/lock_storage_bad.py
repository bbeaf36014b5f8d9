# repro: module[repro.storage.fixture_lock_storage_bad]
"""Fixture: a lock contract declared outside the serving packages is
still a contract — the declaration is the opt-in, not the package."""


class Meter:
    __guarded_by__ = {"_scope_lock": ("_scopes",)}

    def __init__(self) -> None:
        self._scopes = 0

    def open_scope(self) -> None:
        self._scopes += 1

    def _close_scope_locked(self) -> None:
        self._scopes -= 1

    def close_scope(self) -> None:
        self._close_scope_locked()

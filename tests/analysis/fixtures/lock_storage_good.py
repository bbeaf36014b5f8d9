# repro: module[repro.storage.fixture_lock_storage_good]
"""Fixture: the same storage-layer contract, honoured."""


class Meter:
    __guarded_by__ = {"_scope_lock": ("_scopes",)}

    def __init__(self) -> None:
        self._scopes = 0

    def open_scope(self) -> None:
        with self._scope_lock:
            self._scopes += 1

    def _close_scope_locked(self) -> None:
        self._scopes -= 1

    def close_scope(self) -> None:
        with self._scope_lock:
            self._close_scope_locked()

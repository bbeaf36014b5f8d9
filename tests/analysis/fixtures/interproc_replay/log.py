# repro: module[repro.storage.blocks]
"""Fixture: the block-open log reads uncharged; nothing else may."""


class BlockOpenLog:
    def columns(self, seq: object, index: int) -> object:
        return seq.peek_columns(index)


def sneak(seq: object) -> object:
    return seq.peek_columns(0)

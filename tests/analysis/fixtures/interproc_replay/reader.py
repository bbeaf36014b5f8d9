# repro: module[repro.retrieval.fixture_reader]
"""Fixture: reading through the log is charged on replay; peeking is not."""


def through_the_log(log: object, seq: object) -> object:
    return log.columns(seq, 0)


def peek(seq: object) -> object:
    return seq.peek_columns(0)


def peek_muted(seq: object, model: object) -> object:
    with model.muted():
        return seq.peek_columns(0)

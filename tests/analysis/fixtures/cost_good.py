# repro: module[repro.retrieval.fixture_cost_good]
"""Fixture: decodes are charged (read_block_columns) or explicitly muted."""


def scan(seq: object) -> list:
    rows: list = []
    for index in range(seq.block_count):
        rows.extend(seq.read_block_columns(index).rows())
    return rows


def build(seq: object, model: object) -> list:
    with model.muted():
        return list(seq.entries())

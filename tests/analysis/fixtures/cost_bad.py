# repro: module[repro.retrieval.fixture_cost_bad]
"""Fixture: uncharged block decodes on a query path."""


def scan(seq: object, catalog: object) -> list:
    rows = list(seq.entries())
    rows += catalog.segment_entries("keyword")
    return rows

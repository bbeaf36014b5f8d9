"""Wall-clock codec throughput: columnar decode+score vs the scalar
baseline, and the layout-compiled block encoder vs the per-entry loop.

The columnar refactor (ISSUE 7) claims real speed, not just unchanged
simulated costs: batch varint decoding into parallel arrays plus
``score_block`` must beat the pre-refactor entry-at-a-time kernel —
``decode_block_scalar`` feeding per-entry ``score()`` calls — by at
least the pinned factor on the Fig-4 query mix (and a lower floor on
the broader Fig-5 mix).

The workload is real: the RPL segments the paper's Fig-4 (Q202/Q203)
and Fig-5 (Q260/Q270) queries materialize on the bench IEEE corpus,
decoded block by block and scored with the engine's BM25 scorer.  Both
kernels fold their scores into a checksum that must agree bitwise —
the throughput comparison is only meaningful if the work is identical.

The ``encode`` mix times ``BlockCodec.encode_block`` — one loop
compiled per layout — against the per-entry loop it replaced (kept as
the tests' oracle, ``tests/storage/encoder_reference.py``) on the bench
IEEE corpus's stored blocks: the posting fragments of the Fig-4 query
terms, every Elements block, and the Fig-4 RPL and ERPL segments.  Each
block's rows are decoded from the stored payload, and both encoders
must give the stored header and payload back before anything is
timed; the compiled loop must clear :data:`MIN_ENCODE_SPEEDUP`.

Deterministic workload shapes (segment/block/entry/byte counts) are pinned
to ``baseline_wallclock.json`` exactly; recorded entries/sec are
reference points with a *generous* tolerance (CI machines vary), and
wall-clock numbers are otherwise reported, never pinned.  Regenerate
after an intentional change with
``PYTHONPATH=src python benchmarks/test_bench_wallclock.py``.
"""

import json
import os
import sys
import time

import pytest
from conftest import record_report

from repro.bench import PAPER_QUERIES, bench_engine, format_rows
from repro.storage import BlockCodec

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
from tests.storage.encoder_reference import encode_block_reference  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "baseline_wallclock.json")

MIXES = {
    "fig4": (202, 203),
    "fig5": (260, 270),
}
#: Acceptance floors on columnar/scalar throughput (generous vs the
#: reference measurements so slow CI runners still pass).
MIN_SPEEDUP = {"fig4": 2.0, "fig5": 1.5}
#: Acceptance floor on compiled/reference encode throughput.
MIN_ENCODE_SPEEDUP = 2.0
#: A run must reach this fraction of the recorded reference entries/sec
#: (catches an order-of-magnitude regression without pinning hardware).
MIN_REFERENCE_FRACTION = 0.05

_TARGET_SECONDS = 0.25

#: The encode mix's block layouts, in report order.
ENCODE_LAYOUTS = ("postings", "elements", "rpl", "erpl")


def _mix_blocks(engine, qids):
    """(term, codec, payload, count) for every block of every RPL
    segment the mix's queries read, deduplicated by segment."""
    seen = {}
    for qid in qids:
        paper_query = PAPER_QUERIES[qid]
        engine.materialize_for_query(paper_query.nexi, kinds=("rpl",),
                                     scope="universal")
        translated = engine.translate(paper_query.nexi)
        for clause in translated.clauses:
            for term in clause.terms:
                segment = engine.catalog.find_segment("rpl", term,
                                                      clause.sids)
                if segment is None or segment.segment_id in seen:
                    continue
                seen[segment.segment_id] = (
                    term, engine.catalog.blocks_for(segment))
    blocks = []
    for term, sequence in seen.values():
        for index, header in enumerate(sequence.headers):
            blocks.append((term, sequence.codec,
                           sequence._payloads[index], header.count))
    return len(seen), blocks


def _scalar_pass(blocks, scorer):
    """Pre-refactor kernel: entry-at-a-time decode, per-entry score."""
    checksum = 0.0
    for term, codec, payload, count in blocks:
        for row in codec.decode_block_scalar(payload, count):
            checksum += scorer.score(term, row[0] % 7 + 1, row[5])
    return checksum

def _columnar_pass(blocks, scorer):
    """Refactored kernel: batch decode to columns, one score_block."""
    checksum = 0.0
    for term, codec, payload, count in blocks:
        columns = codec.decode_columns(payload, count)
        tfs = [ir % 7 + 1 for ir in columns.keys[0]]
        for score in scorer.score_block(term, tfs, columns.payloads[4]):
            checksum += score
    return checksum


def _throughput(kernel, entries):
    """entries/sec of the zero-argument *kernel* over enough repetitions
    to fill the target window."""
    kernel()  # warm (page cache, code paths)
    passes = 0
    started = time.perf_counter()
    while True:
        kernel()
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed >= _TARGET_SECONDS:
            return entries * passes / elapsed


def measure(engine=None):
    """One row per mix: workload shape and both kernels' throughput."""
    engine = engine if engine is not None else bench_engine("ieee")
    rows = []
    for mix, qids in MIXES.items():
        segments, blocks = _mix_blocks(engine, qids)
        entries = sum(count for _, _, _, count in blocks)
        scorer = engine.scorer
        assert _scalar_pass(blocks, scorer) == _columnar_pass(blocks, scorer)
        scalar_eps = _throughput(lambda: _scalar_pass(blocks, scorer),
                                 entries)
        columnar_eps = _throughput(lambda: _columnar_pass(blocks, scorer),
                                   entries)
        rows.append({
            "mix": mix,
            "queries": list(qids),
            "segments": segments,
            "blocks": len(blocks),
            "entries": entries,
            "scalar_eps": round(scalar_eps),
            "columnar_eps": round(columnar_eps),
            "speedup": round(columnar_eps / scalar_eps, 2),
        })
    rows.append(measure_encode(engine))
    return rows


def _encode_blocks(engine):
    """(layout, codec, rows, stored (header, payload)) for every block
    the encode mix re-encodes."""
    terms = set()
    sequences = []
    for qid in MIXES["fig4"]:
        nexi = PAPER_QUERIES[qid].nexi
        engine.materialize_for_query(nexi, kinds=("rpl", "erpl"),
                                     scope="universal")
        for clause in engine.translate(nexi).clauses:
            terms.update(clause.terms)
            for kind in ("rpl", "erpl"):
                for term in clause.terms:
                    segment = engine.catalog.find_segment(kind, term,
                                                          clause.sids)
                    if segment is not None:
                        sequences.append(
                            (kind, engine.catalog.blocks_for(segment)))
    postings = engine.blocked_postings
    sequences += [("postings", postings.sequence(term))
                  for term in sorted(terms) if postings.sequence(term)]
    elements = engine.blocked_elements
    sequences += [("elements", elements.sequence(sid))
                  for sid in elements.keys()]
    blocks, seen = [], set()
    for layout, sequence in sequences:
        if id(sequence) in seen:
            continue
        seen.add(id(sequence))
        for index, header in enumerate(sequence.headers):
            payload = sequence._payloads[index]
            rows = sequence.codec.decode_columns(payload, header.count).rows()
            blocks.append((layout, sequence.codec, rows, (header, payload)))
    return blocks


def measure_encode(engine):
    """The encode mix's row: its shape and both encoders' throughput."""
    blocks = _encode_blocks(engine)
    for _layout, codec, rows, stored in blocks:
        assert codec.encode_block(rows) == stored
        assert encode_block_reference(codec, rows) == stored
    entries = sum(len(rows) for _, _, rows, _ in blocks)

    def encode_all(encode):
        for _layout, codec, rows, _stored in blocks:
            encode(codec, rows)

    reference_eps = _throughput(
        lambda: encode_all(encode_block_reference), entries)
    compiled_eps = _throughput(
        lambda: encode_all(BlockCodec.encode_block), entries)
    return {
        "mix": "encode",
        "layouts": {layout: sum(1 for block in blocks if block[0] == layout)
                    for layout in ENCODE_LAYOUTS},
        "blocks": len(blocks),
        "entries": entries,
        "bytes": sum(len(payload) for _, _, _, (_, payload) in blocks),
        "reference_eps": round(reference_eps),
        "compiled_eps": round(compiled_eps),
        "speedup": round(compiled_eps / reference_eps, 2),
    }


@pytest.fixture(scope="module")
def baseline():
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def measured(ieee_engine):
    rows = {row["mix"]: row for row in measure(ieee_engine)}
    record_report(
        "Wall-clock decode+score throughput (entries/sec)",
        format_rows([rows[mix] for mix in MIXES]))
    record_report(
        "Wall-clock block encode throughput (entries/sec)",
        format_rows([rows["encode"]]))
    return rows


def test_encode_shape_is_pinned(measured, baseline):
    got, want = measured["encode"], baseline["encode"]
    for field in ("layouts", "blocks", "entries", "bytes"):
        assert got[field] == want[field], (
            f"encode workload changed shape ({field}: {got[field]} != "
            f"{want[field]}); if intentional, regenerate "
            "benchmarks/baseline_wallclock.json with "
            "`PYTHONPATH=src python benchmarks/test_bench_wallclock.py`")


def test_compiled_encoder_clears_speedup_floor(measured):
    row = measured["encode"]
    assert row["speedup"] >= MIN_ENCODE_SPEEDUP, (
        f"the compiled block encoder is only {row['speedup']}x the "
        f"per-entry loop (floor {MIN_ENCODE_SPEEDUP}x)")


@pytest.mark.parametrize("mix", sorted(MIXES))
def test_workload_shape_is_pinned(mix, measured, baseline):
    got, want = measured[mix], baseline[mix]
    for field in ("queries", "segments", "blocks", "entries"):
        assert got[field] == want[field], (
            f"{mix} workload changed shape ({field}: {got[field]} != "
            f"{want[field]}); if intentional, regenerate "
            "benchmarks/baseline_wallclock.json with "
            "`PYTHONPATH=src python benchmarks/test_bench_wallclock.py`")


@pytest.mark.parametrize("mix", sorted(MIXES))
def test_columnar_kernel_clears_speedup_floor(mix, measured):
    row = measured[mix]
    assert row["speedup"] >= MIN_SPEEDUP[mix], (
        f"{mix}: columnar decode+score is only {row['speedup']}x the "
        f"scalar kernel (floor {MIN_SPEEDUP[mix]}x)")


@pytest.mark.parametrize("mix", sorted(MIXES))
def test_throughput_within_reference_tolerance(mix, measured, baseline):
    # Generous: only an order-of-magnitude collapse fails this.
    floor = baseline[mix]["columnar_eps"] * MIN_REFERENCE_FRACTION
    assert measured[mix]["columnar_eps"] >= floor, (
        f"{mix}: columnar throughput {measured[mix]['columnar_eps']}/s "
        f"fell below {MIN_REFERENCE_FRACTION:.0%} of the recorded "
        f"reference {baseline[mix]['columnar_eps']}/s")


if __name__ == "__main__":
    payload = {row.pop("mix"): row for row in measure()}
    with open(BASELINE_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {BASELINE_PATH}")
    print(json.dumps(payload, indent=2))

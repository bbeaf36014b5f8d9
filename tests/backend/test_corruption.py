"""Torn, truncated or malformed stores raise typed corruption errors
that name the artifact (path + segment id), never raw struct/zlib/sqlite
exceptions."""

import os
import shutil
import sqlite3

import pytest

from repro.backend import BACKEND_NAMES, make_backend, open_backend
from repro.errors import StorageCorruptionError, StorageError
from repro.index.rpl import rpl_block_codec
from repro.storage.blocks import BlockSequence

from .conftest import golden_answers, make_engine


def entries(n=300, run=0):
    return [(rank, float(n - rank), run, rank, rank + 1, 1)
            for rank in range(n)]


def saved_index(collection, tmp_path, backend):
    engine = make_engine(collection, backend=backend)
    golden_answers(engine)  # materialize RPL/ERPL segments
    out = tmp_path / "idx"
    engine.save_indexes(str(out))
    return out


class TestPagerCorruption:
    def test_truncated_blk_names_path_and_segment(self, collection, tmp_path):
        out = saved_index(collection, tmp_path, "pager")
        catalog_dir = out / "catalog"
        victim = sorted(entry for entry in os.listdir(catalog_dir)
                        if entry.endswith(".blk") and ".d" not in entry)[0]
        blob = catalog_dir / victim
        blob.write_bytes(blob.read_bytes()[:-5])

        fresh = make_engine(collection)
        with pytest.raises(StorageCorruptionError) as err:
            fresh.load_indexes(str(out))
        segment_id = int(victim[len("seg"):-len(".blk")])
        assert err.value.sequence_id == segment_id
        assert err.value.source.endswith(victim)
        assert f"segment {segment_id}" in str(err.value)

    def test_bad_magic_is_corruption_not_codec_crash(self, collection,
                                                     tmp_path):
        out = saved_index(collection, tmp_path, "pager")
        catalog_dir = out / "catalog"
        victim = sorted(entry for entry in os.listdir(catalog_dir)
                        if entry.endswith(".blk") and ".d" not in entry)[0]
        blob = catalog_dir / victim
        blob.write_bytes(b"XXXXX" + blob.read_bytes()[5:])

        fresh = make_engine(collection)
        with pytest.raises(StorageCorruptionError, match="bad magic"):
            fresh.load_indexes(str(out))


class TestSqliteCorruption:
    def test_malformed_row_names_path_and_blob(self, collection, tmp_path):
        out = saved_index(collection, tmp_path, "sqlite")
        db = out / "catalog" / "catalog.sqlite"
        conn = sqlite3.connect(db)
        victim = conn.execute(
            "SELECT name FROM blobs WHERE name LIKE 'seg%' "
            "ORDER BY name").fetchone()[0]
        conn.execute("UPDATE blobs SET data = 7 WHERE name = ?", (victim,))
        conn.commit()
        conn.close()

        fresh = make_engine(collection)
        with pytest.raises(StorageCorruptionError) as err:
            fresh.load_indexes(str(out))
        assert "malformed row" in str(err.value)
        assert repr(victim) in str(err.value)
        assert err.value.source.endswith("catalog.sqlite")

    def test_overwritten_database_is_unreadable_not_a_crash(self, collection,
                                                            tmp_path):
        out = saved_index(collection, tmp_path, "sqlite")
        (out / "catalog" / "catalog.sqlite").write_bytes(
            b"this is not a sqlite database, it just sits where one was")

        fresh = make_engine(collection)
        with pytest.raises(StorageCorruptionError, match="unreadable sqlite"):
            fresh.load_indexes(str(out))


class TestMmapCorruption:
    def test_short_footer_names_path(self, collection, tmp_path):
        out = saved_index(collection, tmp_path, "mmap")
        store_file = out / "catalog" / "catalog.mmap"
        store_file.write_bytes(store_file.read_bytes()[:4])

        with pytest.raises(StorageCorruptionError) as err:
            open_backend(str(out / "catalog"))
        assert "short mmap footer" in str(err.value)
        assert err.value.source.endswith("catalog.mmap")

    def test_truncated_directory_is_corruption(self, collection, tmp_path):
        out = saved_index(collection, tmp_path, "mmap")
        store_file = out / "catalog" / "catalog.mmap"
        data = store_file.read_bytes()
        # Keep the footer but amputate the middle: the directory offset
        # now points past the end of what's left.
        store_file.write_bytes(data[: len(data) // 4] + data[-16:])

        with pytest.raises(StorageCorruptionError):
            open_backend(str(out / "catalog"))


class TestImageCorruption:
    def test_truncated_image_carries_sequence_id(self):
        codec = rpl_block_codec()
        image = BlockSequence.build(entries(), codec, block_size=64).to_bytes()
        with pytest.raises(StorageCorruptionError) as err:
            BlockSequence.from_bytes(image[:-3], codec,
                                     source="ship://seg4.blk", sequence_id=4)
        assert err.value.sequence_id == 4
        assert "ship://seg4.blk (segment 4)" in str(err.value)
        assert "corrupt block image" in str(err.value)

    def test_trailing_bytes_rejected(self):
        codec = rpl_block_codec()
        image = BlockSequence.build(entries(), codec, block_size=64).to_bytes()
        with pytest.raises(StorageCorruptionError, match="trailing bytes"):
            BlockSequence.from_bytes(image + b"\x00", codec)

    def test_wrong_codec_width_is_storage_error(self):
        from repro.index.rpl import erpl_block_codec
        codec = rpl_block_codec()
        image = BlockSequence.build(entries(), codec, block_size=64).to_bytes()
        with pytest.raises(StorageError, match="key width"):
            BlockSequence.from_bytes(image, erpl_block_codec())

    def test_flipped_zlib_payload_byte_is_typed_on_read(self):
        codec = rpl_block_codec()
        sequence = BlockSequence.build(entries(), codec, block_size=64,
                                       compression="zlib")
        image = sequence.to_bytes()
        # The image ends with the last block's stored payload; flipping
        # the final byte breaks the zlib checksum but not the framing.
        tampered = image[:-1] + bytes([image[-1] ^ 0xFF])
        reloaded = BlockSequence.from_bytes(tampered, codec,
                                            source="seg9.blk", sequence_id=9)
        with pytest.raises(StorageCorruptionError) as err:
            reloaded.read_block(reloaded.block_count - 1)
        assert "corrupt zlib block" in str(err.value)
        assert err.value.sequence_id == 9

    def test_truncated_compression_tag(self):
        codec = rpl_block_codec()
        image = BlockSequence.build(entries(), codec, block_size=64,
                                    compression="zlib").to_bytes()
        head = image[:5]  # magic only; tag varint cut off
        with pytest.raises(StorageCorruptionError, match="corrupt block image"):
            BlockSequence.from_bytes(head + b"\x09", codec)


def rewrite_base_blob(out, backend, blob, mutate):
    """Republish ``base/`` with *blob* passed through *mutate*."""
    base_dir = str(out / "base")
    with make_backend(backend, base_dir, mode="r") as store:
        blobs = {name: store.read(name)
                 for name in ("elements.blk", "postings.blk")}
    blobs[blob] = mutate(blobs[blob])
    with make_backend(backend, base_dir, mode="w") as store:
        for name, data in blobs.items():
            store.write(name, data)
        store.sync()


class TestBaseStoreCorruption:
    """The base indexes load through the same typed-error contract, and
    a load that fails for any reason leaves the engine as it was."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("blob,mutate,detail", [
        ("elements.blk", lambda data: data[:-7], "corrupt"),
        ("postings.blk", lambda data: data[:len(data) // 2], "corrupt"),
        ("postings.blk", lambda data: b"XXXXX" + data[5:], "bad magic"),
        ("elements.blk", lambda data: data + b"\x00", "trailing bytes"),
    ])
    def test_torn_base_blob_is_typed_and_load_is_all_or_nothing(
            self, collection, tmp_path, backend, blob, mutate, detail):
        out = saved_index(collection, tmp_path, backend)
        rewrite_base_blob(out, backend, blob, mutate)

        engine = make_engine(collection)
        want = golden_answers(engine)

        def state():
            return (engine.epoch, engine.backend, engine.catalog.describe(),
                    engine.blocked_elements.to_bytes(),
                    engine.blocked_postings.to_bytes())

        before = state()
        with pytest.raises(StorageCorruptionError, match=detail) as err:
            engine.load_indexes(str(out))
        assert os.path.join("base", blob) in err.value.source
        assert state() == before
        assert golden_answers(engine) == want

    def test_corrupt_catalog_leaves_base_and_catalog_untouched(
            self, collection, tmp_path):
        out = saved_index(collection, tmp_path, "pager")
        victim = sorted((out / "catalog").glob("seg*.blk"))[-1]
        victim.write_bytes(victim.read_bytes()[:-5])

        engine = make_engine(collection)
        want = golden_answers(engine)
        segments = engine.catalog.describe()
        assert segments
        with pytest.raises(StorageCorruptionError):
            engine.load_indexes(str(out))
        assert engine.catalog.describe() == segments
        engine.auto_materialize = False  # answers come from what is resident
        assert golden_answers(engine) == want

    def test_directory_without_base_store_names_repro_build(
            self, collection, tmp_path):
        """What a directory saved before the base indexes became block
        stores looks like: row-store table files beside ``catalog/``.
        There is no reader for it — the directory is rebuilt."""
        out = saved_index(collection, tmp_path, "pager")
        shutil.rmtree(out / "base")
        (out / "elements.tbl").write_bytes(b"TRXT legacy table image")
        (out / "postings.tbl").write_bytes(b"TRXT legacy table image")

        engine = make_engine(collection)
        want = golden_answers(engine)
        with pytest.raises(StorageError, match="repro build") as err:
            engine.load_indexes(str(out))
        assert not isinstance(err.value, StorageCorruptionError)
        assert golden_answers(engine) == want

"""Kill-mid-save atomicity: a crash never publishes a torn store."""

import hashlib
import os

import pytest

from repro.backend import BACKEND_NAMES, make_backend, open_backend
from repro.backend.atomic import atomic_write_bytes
from repro.corpus import Collection
from repro.errors import StorageError
from repro.index.rpl import rpl_block_codec
from repro.storage.blocks import BlockSequence

from .conftest import golden_answers, make_engine


def directory_digest(path):
    """Content hash of every file under *path* (recursively)."""
    digest = {}
    for root, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                digest[os.path.relpath(full, path)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return digest


class TestAtomicWriteBytes:
    def test_success_replaces_and_cleans_staging(self, tmp_path):
        target = tmp_path / "image.blk"
        target.write_bytes(b"v1")
        atomic_write_bytes(target, b"v2")
        assert target.read_bytes() == b"v2"
        assert [entry for entry in os.listdir(tmp_path)
                if entry.endswith(".tmp")] == []

    def test_kill_before_publish_keeps_previous_file(self, tmp_path,
                                                     monkeypatch):
        target = tmp_path / "image.blk"
        target.write_bytes(b"v1")

        def exploding_replace(src, dst):
            raise KeyboardInterrupt("killed mid-save")

        monkeypatch.setattr("repro.backend.atomic.os.replace",
                            exploding_replace)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_bytes(target, b"v2")
        monkeypatch.undo()
        assert target.read_bytes() == b"v1"
        assert [entry for entry in os.listdir(tmp_path)
                if entry.endswith(".tmp")] == []

    def test_block_sequence_save_is_atomic(self, tmp_path, monkeypatch):
        codec = rpl_block_codec()
        v1 = BlockSequence.build(
            [(rank, 300.0 - rank, 0, rank, rank + 1, 1)
             for rank in range(300)], codec, block_size=64)
        path = tmp_path / "seg0.blk"
        v1.save(path)

        def exploding_fsync(fd):
            raise KeyboardInterrupt("killed mid-save")

        monkeypatch.setattr("repro.backend.atomic.os.fsync", exploding_fsync)
        v2 = BlockSequence.build(
            [(rank, 600.0 - rank, 1, rank, rank + 2, 2)
             for rank in range(300)], codec, block_size=64)
        with pytest.raises(KeyboardInterrupt):
            v2.save(path)
        monkeypatch.undo()
        reloaded = BlockSequence.load(path, codec)
        assert reloaded.to_bytes() == v1.to_bytes()


class TestKillMidCatalogSave:
    @pytest.mark.parametrize("name", ("sqlite", "mmap"))
    def test_one_file_stores_survive_any_staged_crash(self, name, tmp_path,
                                                      collection,
                                                      monkeypatch):
        engine = make_engine(collection, backend=name)
        want = golden_answers(engine)
        out = tmp_path / "idx"
        engine.save_indexes(str(out))
        before = directory_digest(out)

        # Crash at the publish step of the *second* save: os.replace in
        # both one-file backends is the single publication point.
        def exploding_replace(src, dst):
            raise KeyboardInterrupt("killed mid-save")

        module = ("repro.backend.sqlite.os.replace" if name == "sqlite"
                  else "repro.backend.atomic.os.replace")
        monkeypatch.setattr(module, exploding_replace)
        with pytest.raises(KeyboardInterrupt):
            engine.save_indexes(str(out))
        monkeypatch.undo()

        assert directory_digest(out) == before
        fresh = make_engine(collection)
        fresh.load_indexes(str(out))
        assert fresh.backend == name
        assert golden_answers(fresh) == want

    def test_pager_first_save_crash_publishes_no_manifest(self, tmp_path,
                                                          collection,
                                                          monkeypatch):
        engine = make_engine(collection, backend="pager")
        out = tmp_path / "idx"

        real_write = atomic_write_bytes
        calls = {"n": 0}

        def explode_on_manifest(path, data):
            if str(path).endswith("segments.tsv"):
                raise KeyboardInterrupt("killed before manifest")
            calls["n"] += 1
            real_write(path, data)

        monkeypatch.setattr("repro.backend.pagerdir.atomic_write_bytes",
                            explode_on_manifest)
        with pytest.raises(KeyboardInterrupt):
            engine.save_indexes(str(out))
        monkeypatch.undo()

        assert calls["n"] > 0  # segment blobs did get staged...
        with pytest.raises(StorageError):  # ...but no store was published
            open_backend(str(out / "catalog"))

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_killed_base_store_publish_keeps_previous_answers(
            self, name, tmp_path, collection, monkeypatch):
        """The base indexes go through the same staged publish: a save
        killed while publishing ``base/`` changes nothing on disk, and
        neither the running engine nor a later load notices it."""
        engine = make_engine(Collection.from_documents(collection),
                             backend=name)
        want = golden_answers(engine)
        out = tmp_path / "idx"
        engine.save_indexes(str(out))
        assert sorted(os.listdir(out)) == ["base", "catalog"]
        before = directory_digest(out)

        # Make the next save differ in both stores, then kill it at the
        # base store's first publication point.
        engine.add_document("<article><sec>information retrieval"
                            " algorithm</sec></article>")
        grown = golden_answers(engine)
        assert grown != want

        def killed(*_args):
            raise KeyboardInterrupt("killed mid-save")

        monkeypatch.setattr(
            {"pager": "repro.backend.atomic.os.fsync",
             "sqlite": "repro.backend.sqlite.os.replace",
             "mmap": "repro.backend.atomic.os.replace"}[name], killed)
        with pytest.raises(KeyboardInterrupt):
            engine.save_indexes(str(out))
        monkeypatch.undo()

        assert directory_digest(out) == before
        assert golden_answers(engine) == grown
        fresh = make_engine(collection)
        fresh.load_indexes(str(out))
        assert golden_answers(fresh) == want

    @pytest.mark.parametrize("name", ("sqlite", "mmap"))
    def test_kill_between_the_two_stores_leaves_both_loadable(
            self, name, tmp_path, collection, monkeypatch):
        """``base/`` publishes first, ``catalog/`` last.  A crash in
        between leaves the new base beside the previous catalog — each
        store whole, the directory loadable, ERA (which reads only the
        base indexes) answering for the saved collection."""
        engine = make_engine(Collection.from_documents(collection),
                             backend=name)
        out = tmp_path / "idx"
        engine.save_indexes(str(out))
        before = directory_digest(out)
        engine.add_document("<article><sec>information retrieval"
                            " algorithm</sec></article>")

        module = "sqlite" if name == "sqlite" else "atomic"
        real_replace = os.replace
        publishes = []

        def second_publish_killed(src, dst):
            publishes.append(dst)
            if len(publishes) == 2:
                raise KeyboardInterrupt("killed before the catalog")
            real_replace(src, dst)

        monkeypatch.setattr(f"repro.backend.{module}.os.replace",
                            second_publish_killed)
        with pytest.raises(KeyboardInterrupt):
            engine.save_indexes(str(out))
        monkeypatch.undo()

        after = directory_digest(out)
        changed = {path for path in after if after[path] != before[path]}
        assert changed == {os.path.join("base", f"catalog.{name}")}
        fresh = make_engine(engine.collection)
        fresh.scorer = engine.scorer  # scores follow corpus statistics
        fresh.load_indexes(str(out))
        for (nexi, method), hits in golden_answers(engine).items():
            if method == "era":
                assert golden_answers(fresh)[(nexi, method)] == hits

    def test_pager_blob_writes_leave_no_torn_files(self, tmp_path,
                                                   monkeypatch):
        store = make_backend("pager", str(tmp_path), mode="w")
        store.write("seg0.blk", b"v1")

        def exploding_fsync(fd):
            raise KeyboardInterrupt("killed mid-blob")

        monkeypatch.setattr("repro.backend.atomic.os.fsync", exploding_fsync)
        with pytest.raises(KeyboardInterrupt):
            store.write("seg0.blk", b"v2-much-longer-payload")
        monkeypatch.undo()
        assert store.read("seg0.blk") == b"v1"
        assert store.names() == ["seg0.blk"]
        store.close()

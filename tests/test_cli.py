"""Tests for the command-line interface and the directory loader."""

import pytest

from repro.cli import main
from repro.corpus import SyntheticIEEECorpus, Tokenizer
from repro.corpus.loader import dump_collection, load_collection, node_to_xml
from repro.errors import TrexError
from repro.retrieval import METHODS


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    assert main(["corpus", "--kind", "ieee", "--docs", "6", "--seed", "5",
                 "--out", str(path)]) == 0
    return str(path)


class TestLoader:
    def test_dump_and_load_round_trip(self, tmp_path):
        collection = SyntheticIEEECorpus(num_docs=3, seed=9).build()
        directory = str(tmp_path / "dump")
        written = dump_collection(collection, directory)
        assert len(written) == 3
        reloaded = load_collection(directory, tokenizer=Tokenizer())
        assert len(reloaded) == 3
        # same terms per document (positions may shift; counts must not)
        for document in collection:
            original = sorted(document.terms)
            again = sorted(reloaded.document(document.docid).terms)
            assert original == again

    def test_structure_preserved(self, tmp_path):
        collection = SyntheticIEEECorpus(num_docs=2, seed=9).build()
        directory = str(tmp_path / "dump")
        dump_collection(collection, directory)
        reloaded = load_collection(directory)
        for document in collection:
            original_tags = [n.tag for n in document.elements()]
            reloaded_tags = [n.tag for n in reloaded.document(document.docid).elements()]
            assert original_tags == reloaded_tags

    def test_load_missing_directory(self):
        with pytest.raises(TrexError):
            load_collection("/nonexistent/path")

    def test_load_empty_directory(self, tmp_path):
        with pytest.raises(TrexError):
            load_collection(str(tmp_path))

    def test_load_bad_xml_reports_file(self, tmp_path):
        (tmp_path / "bad.xml").write_text("<a><b></a>")
        with pytest.raises(TrexError, match="bad.xml"):
            load_collection(str(tmp_path))

    def test_node_to_xml_escapes_attributes(self):
        from repro.corpus import parse_xml
        node = parse_xml('<a t="x&amp;y" w="1&#10;2&#9;3"/>')
        assert 't="x&amp;y"' in node_to_xml(node)
        # A tab or newline in a value survives the round trip.
        assert parse_xml(node_to_xml(node)).attributes == node.attributes


class TestCli:
    def test_corpus_generation(self, corpus_dir, tmp_path):
        import os
        files = [f for f in os.listdir(corpus_dir) if f.endswith(".xml")]
        assert len(files) == 6

    def test_info(self, corpus_dir, capsys):
        assert main(["info", corpus_dir, "--alias", "ieee"]) == 0
        out = capsys.readouterr().out
        assert "Elements:" in out and "PostingLists:" in out
        assert "'retrieval_safe': True" in out
        assert main(["info", corpus_dir, "--alias", "ieee",
                     "--summary", "tag"]) == 0
        assert "'retrieval_safe': False" in capsys.readouterr().out

    def test_translate(self, corpus_dir, capsys):
        assert main(["translate", corpus_dir, "--alias", "ieee",
                     "//article//sec[about(., information)]"]) == 0
        out = capsys.readouterr().out
        assert "target" in out and "terms: ['information']" in out

    def test_query_all_methods(self, corpus_dir, capsys):
        for method in sorted(set(METHODS) - {"auto"}):
            assert main(["query", corpus_dir, "--alias", "ieee",
                         "--method", method, "--k", "3",
                         "//sec[about(., information)]"]) == 0
            out = capsys.readouterr().out
            assert "answers=" in out

    @pytest.mark.parametrize("argv", (["--method", "race"],
                                      ["--method", "ita"],
                                      ["--run-output", "results.run"]))
    def test_query_retired_options_are_argparse_errors(self, corpus_dir,
                                                       argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", corpus_dir, *argv, "//sec[about(., information)]"])
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_query_flat_mode(self, corpus_dir, capsys):
        assert main(["query", corpus_dir, "--alias", "ieee", "--flat",
                     "//article[about(., xml)]//sec[about(., information)]"]) == 0
        captured = capsys.readouterr()
        assert "cost=" in captured.out
        assert captured.err == ""  # the default summary is retrieval-safe

    def test_query_tag_summary(self, corpus_dir, capsys):
        assert main(["query", corpus_dir, "--alias", "ieee", "--summary", "tag",
                     "//sec[about(., information)]"]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not retrieval-safe" in err

    def test_query_ak_summary(self, corpus_dir, capsys):
        assert main(["query", corpus_dir, "--alias", "ieee", "--summary", "ak1",
                     "//sec[about(., information)]"]) == 0

    def test_bad_corpus_dir_returns_error(self, capsys):
        assert main(["info", "/nonexistent"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_advise(self, corpus_dir, tmp_path, capsys):
        workload = tmp_path / "workload.tsv"
        workload.write_text(
            "# id\tk\tfreq\tnexi\n"
            "hot\t5\t0.7\t//sec[about(., information)]\n"
            "cold\t5\t0.3\t//article[about(., ontologies)]\n")
        assert main(["advise", corpus_dir, "--alias", "ieee",
                     "--workload", str(workload), "--budget", "1000000",
                     "--selector", "ilp", "--apply"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "achieved" in out

    def test_advise_bad_workload_file(self, corpus_dir, tmp_path, capsys):
        workload = tmp_path / "bad.tsv"
        workload.write_text("only-one-field\n")
        assert main(["advise", corpus_dir, "--workload", str(workload),
                     "--budget", "100"]) == 1


class TestBackendCli:
    def test_build_saves_through_the_chosen_backend(self, corpus_dir,
                                                    tmp_path, capsys):
        out = tmp_path / "idx-sqlite"
        assert main(["build", corpus_dir, "--alias", "ieee",
                     "--backend", "sqlite", "--compress", "zlib",
                     "--terms", "information", "--out", str(out)]) == 0
        assert "backend=sqlite, compression=zlib" in capsys.readouterr().out
        assert (out / "catalog" / "catalog.sqlite").exists()
        assert not (out / "catalog" / "segments.tsv").exists()

    def test_build_mmap_packs_one_store_file(self, corpus_dir, tmp_path,
                                             capsys):
        out = tmp_path / "idx-mmap"
        assert main(["build", corpus_dir, "--alias", "ieee",
                     "--backend", "mmap",
                     "--terms", "information", "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "catalog" / "catalog.mmap").exists()

    def test_unknown_backend_is_a_usage_error(self, corpus_dir, capsys):
        with pytest.raises(SystemExit):
            main(["info", corpus_dir, "--backend", "paper-tape"])
        assert "--backend" in capsys.readouterr().err

    def test_query_accepts_backend_flags(self, corpus_dir, capsys):
        assert main(["query", corpus_dir, "--alias", "ieee",
                     "--backend", "mmap", "--compress", "zlib",
                     "--method", "ta", "--k", "3",
                     "//sec[about(., information)]"]) == 0
        assert "answers=" in capsys.readouterr().out

    def test_advise_compression_prints_codec_and_backend_report(
            self, corpus_dir, tmp_path, capsys):
        workload = tmp_path / "workload.tsv"
        workload.write_text(
            "# id\tk\tfreq\tnexi\n"
            "hot\t5\t0.7\t//sec[about(., information)]\n")
        assert main(["advise", corpus_dir, "--alias", "ieee",
                     "--workload", str(workload), "--budget", "1000000",
                     "--selector", "ilp", "--compression"]) == 0
        out = capsys.readouterr().out
        assert "recommended codec per kind:" in out
        assert "rpl=" in out and "erpl=" in out
        for backend in ("pager", "sqlite", "mmap"):
            assert backend in out


class TestCliServeEngine:
    @pytest.mark.parametrize("summary, name", [("tag", "tag"),
                                               ("ak2", "a(2)")])
    def test_serve_shards_keep_the_summary(self, corpus_dir, summary, name):
        from repro.cli import _make_sharded_engine, build_parser
        args = build_parser().parse_args(
            ["serve", corpus_dir, "--alias", "ieee", "--summary", summary,
             "--shards", "2"])
        engine = _make_sharded_engine(args, args.shards, args.shard_policy)
        assert engine.num_shards == 2
        assert [engine.summary.name] + [
            shard.engine.summary.name for shard in engine.shards] == [name] * 3


class TestCliExplain:
    def test_explain(self, corpus_dir, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["explain", corpus_dir, "--alias", "ieee",
                         "//sec[about(., information)]"]) == 0
        out = capsys.readouterr().out
        assert "method:" in out and "postings=" in out

    def test_explain_with_comparison(self, corpus_dir, capsys):
        from repro.cli import main as cli_main
        assert cli_main(["explain", corpus_dir, "--alias", "ieee",
                         "//sec[about(., information) and .//yr > 1990]"]) == 0
        out = capsys.readouterr().out
        assert "filters:" in out


class TestRemovedSubcommands:
    def test_analyze_is_an_unknown_subcommand(self, capsys):
        # The lint suite is a repository tool (python -m repro_lint),
        # not part of the installed CLI.
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--list-rules"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'analyze'" in capsys.readouterr().err

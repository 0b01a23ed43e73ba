"""Configuration round trips and the command-line pipeline end to end."""

from dataclasses import fields
from types import SimpleNamespace
from typing import get_type_hints

import pytest

from affixgen.cli import build_parser, main
from affixgen import corpus
from affixgen.corpus import (
    Document,
    load_cooccurrence,
    load_index,
    load_stopwords,
)
from affixgen.disambig import (
    BilingualDictionary,
    build_weighted_query,
    save_weighted_queries,
)
from affixgen.config import (
    ExperimentConfig,
    apply_overrides,
    config_from_text,
    config_to_text,
    load_config,
    save_config,
)
from oracles import index_bruteforce, window_cooccurrence_bruteforce
from synthcorpus import build_world, world_files
from tables import tables, token_stream


class TestConfig:
    def test_text_round_trip(self):
        cfg = ExperimentConfig(
            corpus="/data/corpus.tsv",
            mode="ag",
            weighting="2g",
            seed=7,
            prf=True,
            rule_prob_threshold=0.025,
            min_len="3,4,5",
            mu=500.5,
            itd_eps=1e-8,
        )
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(topics="t.tsv", k_max=2, require_context=False)
        path = tmp_path / "exp.ini"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            config_from_text("[mystery]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            config_from_text("[retrieval]\nbm25_b = 0.75\n")

    def test_boolean_spellings(self):
        for text, value in (("yes", True), ("on", True), ("1", True),
                            ("no", False), ("off", False), ("0", False)):
            cfg = config_from_text(f"[pipeline]\nprf = {text}\n")
            assert cfg.prf is value
        with pytest.raises(ValueError, match="not a boolean"):
            config_from_text("[pipeline]\nprf = maybe\n")

    def test_apply_overrides(self):
        cfg = ExperimentConfig()
        apply_overrides(cfg, {"mu": "250", "prf": "true", "mode": "stem"})
        assert cfg.mu == 250.0
        assert cfg.prf is True
        assert cfg.mode == "stem"
        with pytest.raises(ValueError, match="unknown config key"):
            apply_overrides(cfg, {"stemmer": "porter"})

    def test_min_len_map(self):
        cfg = ExperimentConfig(min_len="4,5,6", k_max=3)
        assert cfg.min_len_map() == {1: 4, 2: 5, 3: 6}
        cfg = ExperimentConfig(min_len="2,3", k_max=2)
        assert cfg.min_len_map() == {1: 2, 2: 3}
        with pytest.raises(ValueError, match="min_len needs 3"):
            ExperimentConfig(min_len="4,5", k_max=3).min_len_map()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    world = build_world()
    paths = world_files(world, root)
    index_dir = str(root / "snapshot")
    rules_file = str(root / "rules.tsv")
    assert main(["index", "--corpus", paths["corpus"], "--index-dir", index_dir]) == 0
    assert main(["mine-rules", "--index-dir", index_dir,
                 "--rules-file", rules_file]) == 0
    return SimpleNamespace(
        root=root,
        world=world,
        paths=paths,
        index_dir=index_dir,
        rules_file=rules_file,
    )


def write_corpus(path, docs):
    path.write_text("".join(f"{d.doc_id}\t{d.text}\n" for d in docs), encoding="utf-8")


def translate(pipe, out, *extra):
    argv = [
        "translate",
        "--dictionary", pipe.paths["dictionary"],
        "--topics", pipe.paths["topics"],
        "--index-dir", pipe.index_dir,
        "--out", str(out),
        *extra,
    ]
    return main(argv)


def retrieve(pipe, queries, out):
    return main([
        "retrieve",
        "--index-dir", pipe.index_dir,
        "--queries", str(queries),
        "--out", str(out),
    ])


class TestCliPipeline:
    def test_index_snapshot_files(self, pipeline):
        names = {p.name for p in pipeline.root.joinpath("snapshot").iterdir()}
        # No temporary file is left beside them.
        assert names == {"index.json", "doc_lens.tsv", "positions.tsv"}

    def test_index_with_stopwords_round_trips(self, tmp_path, capsys):
        docs = [Document("d1", "kala talo ja kalat"), Document("d2", "ja on ja"),
                Document("d3", "talot on kala talo kalat")]
        corpus, stop = tmp_path / "corpus.tsv", tmp_path / "stop.txt"
        write_corpus(corpus, docs)
        stop.write_text("ja\non\n", encoding="utf-8")
        snap = tmp_path / "snap"
        assert main(["index", "--corpus", str(corpus), "--stopwords", str(stop),
                     "--index-dir", str(snap)]) == 0
        assert capsys.readouterr().out == "indexed 3 documents, 4 terms, 7 tokens\n"

        token_docs = list(token_stream(docs, load_stopwords(stop)))
        postings, doc_len, _ = index_bruteforce(token_docs)
        assert doc_len == {"d1": 3, "d2": 0, "d3": 4}
        loaded_index, loaded_cooc = load_index(snap), load_cooccurrence(snap, 2)
        assert loaded_index.postings == postings
        assert loaded_index.doc_len == doc_len
        assert loaded_cooc.doc_len == [3, 0, 4]
        assert loaded_cooc.positions == {
            "kala": {0: [0], 2: [1]}, "talo": {0: [1], 2: [2]},
            "kalat": {0: [2], 2: [3]}, "talot": {2: [0]}}
        _, unigram, total = window_cooccurrence_bruteforce(
            [tokens for _, tokens in token_docs], 2)
        assert loaded_cooc.unigram_window_count == unigram
        assert loaded_cooc.total_windows == total == 5

    def test_mined_rules_file(self, pipeline):
        text = open(pipeline.rules_file, encoding="utf-8").read()
        assert text.startswith("#k_max\t3\n")
        assert len(text.splitlines()) > 10

    def test_generate_formations_dump(self, pipeline, tmp_path):
        out = tmp_path / "formations.tsv"
        base = pipeline.world.bases[0]
        rc = main([
            "generate",
            "--index-dir", pipeline.index_dir,
            "--rules-file", pipeline.rules_file,
            "--terms", base,
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines
        surfaces = {line.split("\t")[1] for line in lines}
        planted = set(pipeline.world.variants[base])
        assert surfaces & planted

    def test_full_retrieval_comparison(self, pipeline, tmp_path, capsys):
        q_plain = tmp_path / "q_plain.tsv"
        q_ag = tmp_path / "q_ag.tsv"
        assert translate(pipeline, q_plain, "--weighting", "2g") == 0
        assert translate(
            pipeline, q_ag,
            "--weighting", "2g", "--mode", "ag",
            "--rules-file", pipeline.rules_file,
            "--rule-prob-threshold", "0.01",
        ) == 0
        assert "formation" in q_ag.read_text(encoding="utf-8")

        run_plain = tmp_path / "run_plain.txt"
        run_ag = tmp_path / "run_ag.txt"
        assert retrieve(pipeline, q_plain, run_plain) == 0
        assert retrieve(pipeline, q_ag, run_ag) == 0

        capsys.readouterr()
        rc = main([
            "evaluate",
            "--qrels", pipeline.paths["qrels"],
            "--run", str(run_ag),
            "--out", str(tmp_path / "eval_ag.tsv"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        map_line = next(l for l in out.splitlines() if l.startswith("map\t"))
        ag_map = float(map_line.split("\t")[1])
        assert ag_map > 0.0

        rc = main([
            "ttest",
            "--qrels", pipeline.paths["qrels"],
            "--run-a", str(run_ag),
            "--run-b", str(run_plain),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "significant_at_0.05\tyes" in out

    def test_translate_is_deterministic(self, pipeline, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        args = ("--weighting", "2g", "--mode", "ag",
                "--rules-file", pipeline.rules_file)
        assert translate(pipeline, a, *args) == 0
        assert translate(pipeline, b, *args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_retrieval_is_deterministic(self, pipeline, tmp_path):
        q = tmp_path / "q.tsv"
        assert translate(pipeline, q, "--weighting", "unif") == 0
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        assert retrieve(pipeline, q, r1) == 0
        assert retrieve(pipeline, q, r2) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_prf_flag_round_trip(self, pipeline, tmp_path):
        q = tmp_path / "q.tsv"
        assert translate(pipeline, q, "--weighting", "unif") == 0
        out = tmp_path / "run_prf.txt"
        rc = main([
            "retrieve",
            "--index-dir", pipeline.index_dir,
            "--queries", str(q),
            "--out", str(out),
            "--prf", "--prf-docs", "3", "--prf-terms", "10",
        ])
        assert rc == 0
        assert out.read_text(encoding="utf-8")

    def test_emit_config_reloads_identically(self, pipeline, tmp_path):
        emitted = tmp_path / "effective.ini"
        q = tmp_path / "q.tsv"
        rc = translate(
            pipeline, q,
            "--weighting", "2g", "--mu", "123.5", "--no-require-context",
            "--emit-config", str(emitted),
        )
        assert rc == 0
        cfg = load_config(emitted)
        assert cfg.weighting == "2g"
        assert cfg.mu == 123.5
        assert cfg.require_context is False
        assert cfg.topics == pipeline.paths["topics"]
        reemitted = tmp_path / "effective2.ini"
        save_config(cfg, reemitted)
        assert emitted.read_bytes() == reemitted.read_bytes()

    def test_config_file_with_flag_override(self, pipeline, tmp_path):
        cfg = ExperimentConfig(
            dictionary=pipeline.paths["dictionary"],
            topics=pipeline.paths["topics"],
            index_dir=pipeline.index_dir,
            weighting="top1",
        )
        path = tmp_path / "exp.ini"
        save_config(cfg, path)
        q = tmp_path / "q.tsv"
        rc = main([
            "translate", "--config", str(path),
            "--weighting", "unif",
            "--out", str(q),
        ])
        assert rc == 0
        # Every dictionary entry has two candidates; top1 would zero one out,
        # so surviving pairs prove the flag overrode the file.
        lines = q.read_text(encoding="utf-8").splitlines()
        qids = [line.split("\t")[0] for line in lines]
        assert any(qids.count(qid) == 4 for qid in set(qids))

    def test_tune_thresholds_report(self, pipeline, tmp_path, capsys):
        report = tmp_path / "tuning.txt"
        capsys.readouterr()
        rc = main([
            "tune-thresholds",
            "--dictionary", pipeline.paths["dictionary"],
            "--topics", pipeline.paths["topics"],
            "--index-dir", pipeline.index_dir,
            "--rules-file", pipeline.rules_file,
            "--qrels", pipeline.paths["qrels"],
            "--weighting", "2g",
            "--tau-grid", "0.01,0.9",
            "--min-len-grid", "4,5,6",
            "--folds", "2",
            "--out", str(report),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean_test_map" in out
        assert report.read_text(encoding="utf-8").strip().endswith(
            out.strip().splitlines()[-1]
        )

    def test_tune_thresholds_emits_the_mode_it_ran(self, pipeline, tmp_path):
        emitted = tmp_path / "effective.ini"
        rc = main([
            "tune-thresholds",
            "--dictionary", pipeline.paths["dictionary"],
            "--topics", pipeline.paths["topics"],
            "--index-dir", pipeline.index_dir,
            "--rules-file", pipeline.rules_file,
            "--qrels", pipeline.paths["qrels"],
            "--tau-grid", "0.01",
            "--folds", "2",
            "--emit-config", str(emitted),
        ])
        assert rc == 0
        assert load_config(emitted).mode == "ag"

    def test_tune_thresholds_loads_no_unused_cooccurrence(self, pipeline, capsys,
                                                          monkeypatch):
        argv = [
            "tune-thresholds",
            "--dictionary", pipeline.paths["dictionary"],
            "--topics", pipeline.paths["topics"],
            "--index-dir", pipeline.index_dir,
            "--rules-file", pipeline.rules_file,
            "--qrels", pipeline.paths["qrels"],
            "--weighting", "unif", "--no-require-context",
            "--tau-grid", "0.01",
            "--folds", "2",
        ]
        capsys.readouterr()
        assert main(argv) == 0
        report = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("load_cooccurrence called")

        # Neither the weighting nor the context filter reads the table.
        monkeypatch.setattr(corpus, "load_cooccurrence", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == report
        assert "mean_test_map" in report

    def test_monolingual_mode_skips_dictionary(self, pipeline, tmp_path):
        q = tmp_path / "q.tsv"
        rc = main([
            "translate",
            "--topics", pipeline.paths["topics"],
            "--index-dir", pipeline.index_dir,
            "--monolingual",
            "--out", str(q),
        ])
        assert rc == 0
        # Terms fall through untranslated.
        first = q.read_text(encoding="utf-8").splitlines()[0].split("\t")
        assert first[1].startswith("src")


class TestQueryTimeWindow:
    """The co-occurrence window is read from the config by the commands that count."""

    DOCS = [
        Document("d1", "kala vesi talo metsä puu kivi talot ranta kalat tie"),
        Document("d2", "talo kalat järvi kala vesi metsä talot puu kivi ranta"),
        Document("d3", "kalat talot vesi kala järvi metsä tie talo puu kivi"),
    ]
    ENTRIES = {"fish": ["kala", "kalat"], "house": ["talo", "talot"]}

    @pytest.fixture
    def files(self, tmp_path):
        corpus, snap = tmp_path / "corpus.tsv", tmp_path / "snap"
        write_corpus(corpus, self.DOCS)
        (tmp_path / "dict.tsv").write_text(
            "".join(f"{s}\t{','.join(c)}\n" for s, c in self.ENTRIES.items()),
            encoding="utf-8")
        (tmp_path / "topics.tsv").write_text("q1\tfish house\n", encoding="utf-8")
        assert main(["index", "--corpus", str(corpus), "--index-dir", str(snap)]) == 0
        return tmp_path

    def library_queries(self, weighting, window, out):
        index, cooc = tables(self.DOCS, window)
        query = build_weighted_query(
            "q1", ["fish", "house"], BilingualDictionary(self.ENTRIES),
            weighting=weighting, index=index, cooc=cooc)
        save_weighted_queries([query], out)
        return out.read_bytes()

    @pytest.mark.parametrize("weighting", ["2g", "itd"])
    def test_translate_counts_the_configured_window(self, files, weighting):
        emitted, first, again = files / "run.ini", files / "q1.tsv", files / "q2.tsv"
        assert main(["translate", "--mode", "none", "--weighting", weighting,
                     "--context-window", "2", "--dictionary", str(files / "dict.tsv"),
                     "--topics", str(files / "topics.tsv"), "--index-dir", str(files / "snap"),
                     "--out", str(first), "--emit-config", str(emitted)]) == 0
        assert load_config(emitted).context_window == 2
        expected = self.library_queries(weighting, 2, files / "library.tsv")
        assert first.read_bytes() == expected
        assert expected != self.library_queries(weighting, 10, files / "w10.tsv")

        assert main(["translate", "--config", str(emitted), "--out", str(again)]) == 0
        assert again.read_bytes() == expected


class TestCliErrors:
    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_missing_required_config_key(self, tmp_path, capsys):
        rc = main(["mine-rules", "--rules-file", str(tmp_path / "r.tsv")])
        assert rc == 1
        assert "index_dir" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main([
            "retrieve",
            "--index-dir", str(tmp_path / "nowhere"),
            "--queries", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "out.txt"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_corpus_is_reported(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("", encoding="utf-8")
        rc = main([
            "index",
            "--corpus", str(corpus),
            "--index-dir", str(tmp_path / "snap"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_document_id_writes_no_snapshot(self, tmp_path, capsys):
        corpus, snap = tmp_path / "corpus.tsv", tmp_path / "snap"
        write_corpus(corpus, [Document("d1", "kala"), Document("d7", "talo"),
                              Document("d7", "vesi")])
        assert main(["index", "--corpus", str(corpus), "--index-dir", str(snap)]) == 1
        assert "duplicate document identifier: 'd7'" in capsys.readouterr().err
        assert not snap.exists()

    def test_tuning_grid_validation(self, pipeline, capsys):
        rc = main([
            "tune-thresholds",
            "--dictionary", pipeline.paths["dictionary"],
            "--topics", pipeline.paths["topics"],
            "--index-dir", pipeline.index_dir,
            "--rules-file", pipeline.rules_file,
            "--qrels", pipeline.paths["qrels"],
            "--tau-grid", "",
        ])
        assert rc == 1
        assert "grid" in capsys.readouterr().err


BOOL_KEYS = [f.name for f in fields(ExperimentConfig)
             if get_type_hints(ExperimentConfig)[f.name] is bool]


def test_every_bool_key_is_an_on_off_flag_on_every_subcommand():
    assert {"prf", "monolingual", "require_context"} <= set(BOOL_KEYS)
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    assert len(commands) == 8
    for name, command in commands.items():
        required = [arg for action in command._actions if action.required
                    for arg in (action.option_strings[0], "x")]
        for key in BOOL_KEYS:
            flag = key.replace("_", "-")
            for argv, value in (([f"--{flag}"], True), ([f"--no-{flag}"], False), ([], None)):
                args = parser.parse_args([name, *required, *argv])
                assert getattr(args, key) is value, (name, argv)

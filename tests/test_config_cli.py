"""Configuration round trips and the command-line pipeline end to end."""

import inspect
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from typing import get_type_hints

import pytest
import scipy.stats

import affixgen
from affixgen.cli import build_parser, main
from affixgen import cli, corpus, disambig, morphgen
from affixgen.corpus import (
    Document,
    load_cooccurrence,
    load_index,
    load_stopwords,
)
from affixgen.disambig import (
    BilingualDictionary,
    build_candidate_sets,
    build_weighted_query,
    itd_weights,
    load_weighted_queries,
    save_weighted_queries,
    weight_candidate_sets,
)
from affixgen.morphgen import FormationGenerator, NoiseFilterConfig, ngram_split
from affixgen.retrieval import RetrievalConfig, evaluate, load_qrels, load_run, run_queries
from affixgen.rules import MedConfig, RuleTable
from affixgen.config import (
    SECTIONS,
    ExperimentConfig,
    apply_overrides,
    config_from_text,
    config_to_text,
    load_config,
    save_config,
)
from oracles import (
    index_bruteforce,
    prf_expand_dicts,
    score_kl_dicts,
    weights_per_term,
    window_cooccurrence_bruteforce,
)
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

    def test_each_setting_has_one_name_and_one_default(self):
        # The typed settings and the library's keyword defaults read the
        # config key of the same name, so the CLI and the library agree.
        defaults = ExperimentConfig()
        for kind in (MedConfig, NoiseFilterConfig, RetrievalConfig):
            for f in fields(kind):
                expected = (defaults.min_len_map() if f.name == "min_len"
                            else getattr(defaults, f.name))
                assert getattr(kind(), f.name) == expected, (kind.__name__, f.name)
        renamed = {"max_iters": "itd_max_iters", "eps": "itd_eps", "n": "ngram_n"}
        keys = set()
        for function in (build_weighted_query, weight_candidate_sets, build_candidate_sets,
                         itd_weights, ngram_split, run_queries):
            for name, param in inspect.signature(function).parameters.items():
                if param.default not in (inspect.Parameter.empty, None):
                    key = renamed.get(name, name)
                    assert param.default == getattr(defaults, key), (function.__name__, name)
                    keys.add(key)
        assert keys == {"mode", "weighting", "ngram_n", "itd_max_iters", "itd_eps", "run_tag",
                        "prf"}
        assert FormationGenerator([], RuleTable.empty(0)).med.k_max == defaults.k_max


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
        assert names == {"index.json", "doc_ids.txt", "terms.txt", "lengths.npy", "dfs.npy",
                         "row_docs.npy", "tfs.npy", "positions.npy"}

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
        assert loaded_cooc.snapshot.lengths.tolist() == [3, 0, 4]
        pairs, unigram, total = window_cooccurrence_bruteforce(
            [tokens for _, tokens in token_docs], 2)
        assert loaded_cooc.unigram_window_count == unigram
        assert loaded_cooc.total_windows == total == 5
        terms = ["kala", "kalat", "talo", "talot"]
        assert loaded_cooc.pair_counts(terms).tolist() == [
            [0 if a == b else pairs[a, b] + pairs[b, a] for b in terms] for a in terms]

    def test_mined_rules_file(self, pipeline):
        text = Path(pipeline.rules_file).read_text(encoding="utf-8")
        fingerprint = load_index(pipeline.index_dir).fingerprint
        assert text.startswith(f"#k_max\t3\n#snapshot\t{fingerprint}\n")
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

    @pytest.mark.parametrize("prf", [False, True])
    @pytest.mark.parametrize("top_k", [1000, 20])
    def test_run_file_matches_the_dict_oracles(self, pipeline, tmp_path, prf, top_k):
        # The world has 500 documents: top_k 20 cuts below them and below
        # prf_docs, 1000 ranks them all.
        queries = tmp_path / "q.tsv"
        assert translate(pipeline, queries, "--weighting", "2g") == 0
        out = tmp_path / "run.txt"
        assert main(["retrieve", "--index-dir", pipeline.index_dir, "--queries", str(queries),
                     "--out", str(out), "--top-k", str(top_k),
                     "--prf" if prf else "--no-prf"]) == 0
        cfg = ExperimentConfig()
        token_docs = list(token_stream(pipeline.world.documents))
        expected = []
        for query in load_weighted_queries(queries):
            dist = query.as_distribution()
            if prf:
                first = score_kl_dicts(dist, token_docs, cfg.mu, max(top_k, cfg.prf_docs))
                dist = prf_expand_dicts(dist, first, token_docs, cfg.prf_docs, cfg.prf_terms,
                                        cfg.prf_lambda, cfg.prf_noise)
            ranking = score_kl_dicts(dist, token_docs, cfg.mu, top_k)
            expected.extend(f"{query.query_id} Q0 {doc_id} {rank} {score!r} {cfg.run_tag}"
                            for rank, (doc_id, score) in enumerate(ranking, 1))
        assert len(expected) == len(pipeline.world.topics) * min(top_k, 500)
        assert out.read_text(encoding="utf-8").splitlines() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.tsv", "run.txt"]

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
            raise AssertionError("co-occurrence table built")

        # Neither the weighting nor the context filter reads the table, and
        # every path to one goes through its constructor.
        monkeypatch.setattr(corpus, "CooccurrenceTable", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == report
        assert "mean_test_map" in report

    def test_tune_thresholds_searches_the_vocabulary_once(self, pipeline, capsys,
                                                         monkeypatch):
        argv = [
            "tune-thresholds",
            "--dictionary", pipeline.paths["dictionary"],
            "--topics", pipeline.paths["topics"],
            "--index-dir", pipeline.index_dir,
            "--rules-file", pipeline.rules_file,
            "--qrels", pipeline.paths["qrels"],
            "--weighting", "2g",  # under 2g the MAP differs across this grid
            "--tau-grid", "0,0.01,0.9",
            "--min-len-grid", "4,5,6;1,1,1",
            "--folds", "2",
        ]
        builds, signatures = [], morphgen.CharSignatures
        monkeypatch.setattr(morphgen, "CharSignatures",
                            lambda words: builds.append(words) or signatures(words))
        capsys.readouterr()
        assert main(argv) == 0
        report = capsys.readouterr().out
        assert len(builds) == 1
        # The reference builds a generator from scratch at every grid point.
        monkeypatch.setattr(
            morphgen.FormationGenerator, "with_noise",
            lambda self, cfg: morphgen.FormationGenerator(
                self.words, self.rules, self.tagger, cfg, self.med))
        assert main(argv) == 0
        assert capsys.readouterr().out == report
        assert len(builds) > 2
        assert "mean_test_map" in report

    @pytest.mark.parametrize("command", ["translate", "tune-thresholds", "mine-rules",
                                         "generate", "retrieve"])
    def test_one_snapshot_read_builds_both_tables(self, pipeline, tmp_path, monkeypatch,
                                                  command):
        # itd weighting and the ag context filter both read the co-occurrence
        # table; only retrieval reads the index, and mining and generation
        # read the snapshot's terms alone.
        built = {"translate": ["CooccurrenceTable"],
                 "tune-thresholds": ["CollectionIndex", "CooccurrenceTable"],
                 "retrieve": ["CollectionIndex"]}.get(command, [])
        reads, read = [], corpus.read_snapshot
        monkeypatch.setattr(corpus, "read_snapshot",
                            lambda directory: reads.append(directory) or read(directory))
        builds = []
        for name in ("CollectionIndex", "CooccurrenceTable"):
            monkeypatch.setattr(corpus, name, lambda *args, name=name, table=getattr(corpus, name):
                                builds.append(name) or table(*args))
        queries = tmp_path / "q.tsv"
        queries.write_text(f"q1\t{pipeline.world.bases[0]}\t1.0\tdictionary\n",
                           encoding="utf-8")
        translating = ["--dictionary", pipeline.paths["dictionary"],
                       "--topics", pipeline.paths["topics"], "--rules-file", pipeline.rules_file,
                       "--mode", "ag", "--weighting", "itd"]
        argv = [command, "--index-dir", pipeline.index_dir, *{
            "translate": [*translating, "--out", str(tmp_path / "out.tsv")],
            "tune-thresholds": [*translating, "--qrels", pipeline.paths["qrels"],
                                "--tau-grid", "0.01", "--folds", "2"],
            "mine-rules": ["--rules-file", str(tmp_path / "rules.tsv")],
            "generate": ["--rules-file", pipeline.rules_file, "--terms", pipeline.world.bases[0],
                         "--out", str(tmp_path / "out.tsv")],
            "retrieve": ["--queries", str(queries), "--out", str(tmp_path / "out.tsv")],
        }[command]]
        assert main(argv) == 0
        assert reads == [pipeline.index_dir]
        assert sorted(builds) == built

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


def run_child(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's affixgen."""
    env = dict(os.environ, PYTHONPATH=str(Path(affixgen.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                           text=True)
    assert child.returncode == 0, child.stderr
    return child.stdout


NO_SCIPY = "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'"


class TestQueryFilesMatchPerTermWeighting:
    @pytest.mark.parametrize("weighting", ["unif", "top1", "coll", "itd", "2g"])
    @pytest.mark.parametrize("mode", ["none", "ag"])
    def test_query_file_is_byte_identical(self, pipeline, tmp_path, monkeypatch, mode,
                                          weighting):
        args = ("--mode", mode, "--weighting", weighting, "--rules-file", pipeline.rules_file)
        flat, per_term = tmp_path / "flat.tsv", tmp_path / "per_term.tsv"
        assert translate(pipeline, flat, *args) == 0
        monkeypatch.setattr(disambig, "weight_candidate_sets", weights_per_term)
        assert translate(pipeline, per_term, *args) == 0
        assert flat.read_bytes() == per_term.read_bytes()
        assert flat.stat().st_size > 0


class TestWithoutScipy:
    """The program runs on numpy alone; scipy is only a test reference."""

    def test_importing_the_cli_loads_no_scipy(self):
        run_child(f"import sys, affixgen, affixgen.cli\n{NO_SCIPY}")

    def test_ttest_command_prints_the_scipy_p_value(self, pipeline, tmp_path):
        runs = {}
        for name, extra in (("plain", ()), ("ag", ("--mode", "ag",
                                                   "--rules-file", pipeline.rules_file))):
            queries, runs[name] = tmp_path / f"q_{name}.tsv", tmp_path / f"run_{name}.txt"
            assert translate(pipeline, queries, "--weighting", "2g", *extra) == 0
            assert retrieve(pipeline, queries, runs[name]) == 0
        out = run_child(f"import sys\nfrom affixgen.cli import main\nstatus = main(sys.argv[1:])\n"
                        f"{NO_SCIPY}\nsys.exit(status)", "ttest",
                        "--qrels", pipeline.paths["qrels"],
                        "--run-a", str(runs["ag"]), "--run-b", str(runs["plain"]))
        qrels = load_qrels(pipeline.paths["qrels"])
        ag, plain = (evaluate(load_run(runs[name]), qrels).per_query for name in ("ag", "plain"))
        common = sorted(set(ag) & set(plain))
        ref = scipy.stats.ttest_rel([ag[q].ap for q in common], [plain[q].ap for q in common])
        assert f"p\t{float(ref.pvalue):.6g}\n" in out


class TestRulesMatchTheSnapshot:
    """Commands that read rules refuse a rules file mined from another snapshot."""

    @pytest.fixture(scope="class")
    def other(self, pipeline, tmp_path_factory):
        """Snapshot B: the pipeline's corpus without its last document, and its rules."""
        root = tmp_path_factory.mktemp("other")
        lines = Path(pipeline.paths["corpus"]).read_text(encoding="utf-8").splitlines()
        (root / "corpus.tsv").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        snap, rules = str(root / "snap"), str(root / "rules.tsv")
        assert main(["index", "--corpus", str(root / "corpus.tsv"), "--index-dir", snap]) == 0
        assert main(["mine-rules", "--index-dir", snap, "--rules-file", rules]) == 0
        return SimpleNamespace(root=root, index_dir=snap, rules_file=rules)

    def argv(self, pipeline, command, index_dir, rules_file, out):
        inputs = ["--dictionary", pipeline.paths["dictionary"],
                  "--topics", pipeline.paths["topics"]]
        return [command, "--index-dir", index_dir, "--rules-file", rules_file, *{
            "translate": [*inputs, "--mode", "ag", "--out", out],
            "generate": ["--terms", pipeline.world.bases[0], "--out", out],
            "tune-thresholds": [*inputs, "--qrels", pipeline.paths["qrels"],
                                "--tau-grid", "0.01", "--min-len-grid", "4,5,6"],
        }[command]]

    @pytest.mark.parametrize("command", ["translate", "generate", "tune-thresholds"])
    def test_rules_from_another_snapshot_refused(self, pipeline, other, command, capsys):
        out = other.root / "out.tsv"
        capsys.readouterr()
        for index_dir, rules_file in ((other.index_dir, pipeline.rules_file),
                                      (pipeline.index_dir, other.rules_file)):
            assert main(self.argv(pipeline, command, index_dir, rules_file, str(out))) == 1
            err = capsys.readouterr().err
            assert f"rules file {rules_file} records snapshot " in err
            assert f"but {index_dir}/index.json is snapshot " in err
            assert f"re-run `affixgen mine-rules` on {index_dir}" in err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["translate", "generate"])
    def test_rules_from_the_same_snapshot_accepted(self, pipeline, other, command, tmp_path):
        for index_dir, rules_file in ((pipeline.index_dir, pipeline.rules_file),
                                      (other.index_dir, other.rules_file)):
            out = tmp_path / f"{command}.tsv"
            assert main(self.argv(pipeline, command, index_dir, rules_file, str(out))) == 0
            assert out.read_text(encoding="utf-8")

    def test_rules_without_a_snapshot_refused(self, pipeline, tmp_path, capsys):
        rules = tmp_path / "rules.tsv"
        lines = Path(pipeline.rules_file).read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[1].startswith("#snapshot\t")
        rules.write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")
        argv = self.argv(pipeline, "translate", pipeline.index_dir, str(rules),
                         str(tmp_path / "q.tsv"))
        capsys.readouterr()
        assert main(argv) == 1
        assert f"rules file {rules} records snapshot (none)" in capsys.readouterr().err


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

    @pytest.mark.parametrize("text, message", [
        ("seed = 1\n", "File contains no section headers."),
        ("[pipeline]\nseed = 1\nseed = 2\n",
         "[line 3]: option 'seed' in section 'pipeline' already exists"),
        ("[pipeline]\nseed = 1\n[pipeline]\n", "[line 3]: section 'pipeline' already exists"),
        ("[pipeline]\nseed = abc\n", "[pipeline] seed: invalid literal for int()"),
        ("[retrieval]\nmu = lots\n", "[retrieval] mu: could not convert string to float"),
        ("[pipeline]\nprf = maybe\n", "[pipeline] prf: not a boolean: 'maybe'"),
        ("[noise]\nmin_len = 4,x,6\n",
         "[noise] min_len: not a comma-separated list of integers: '4,x,6'"),
        ("[rules]\nk_max = -1\n", "[rules] k_max: k_max must be >= 0, got -1"),
        ("[noise]\nmin_len = 4,-1,6\n", "[noise] min_len: invalid min_len entry 2: -1"),
        ("[noise]\nrule_prob_threshold = -1\n",
         "[noise] rule_prob_threshold: rule_prob_threshold must be >= 0"),
        ("[retrieval]\ntop_k = 0\n", "[retrieval] top_k: top_k must be >= 1, got 0"),
    ])
    def test_a_bad_config_file_is_one_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "exp.ini"
        path.write_text(text, encoding="utf-8")
        assert main(["index", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "abc", "--seed: invalid literal for int()"),
        ("--k-max", "2.5", "--k-max: invalid literal for int()"),
        ("--mu", "lots", "--mu: could not convert string to float"),
        ("--min-len", "4,x,6", "--min-len: not a comma-separated list of integers: '4,x,6'"),
        ("--k-max", "-1", "--k-max: k_max must be >= 0, got -1"),
        ("--rule-prob-threshold", "-1",
         "--rule-prob-threshold: rule_prob_threshold must be >= 0"),
        ("--min-len", "4,-1,6", "--min-len: invalid min_len entry 2: -1"),
        ("--mu", "0", "--mu: mu must be positive, got 0.0"),
        ("--top-k", "0", "--top-k: top_k must be >= 1, got 0"),
        ("--prf-lambda", "2", "--prf-lambda: prf_lambda must be in [0, 1], got 2.0"),
    ])
    def test_a_bad_flag_value_names_the_flag(self, tmp_path, capsys, flag, value, message):
        emitted = tmp_path / "e.ini"
        assert main(["index", flag, value, "--emit-config", str(emitted)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert not emitted.exists()

    def test_percent_signs_round_trip_through_emit_config(self, tmp_path, capsys):
        paths = {key: str(tmp_path / f"{key}%1%%(corpus)s%") for key in SECTIONS["paths"]}
        write_corpus(Path(paths["corpus"]), [Document("d1", "kala talo")])
        Path(paths["stopwords"]).write_text("talo\n", encoding="utf-8")
        flags = [arg for key, value in paths.items()
                 for arg in ("--" + key.replace("_", "-"), value)]
        first, second = tmp_path / "first.ini", tmp_path / "second.ini"
        assert main(["index", *flags, "--emit-config", str(first)]) == 0
        assert load_config(first) == ExperimentConfig(**paths)
        assert main(["index", "--config", str(first), "--emit-config", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()
        assert "error" not in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--tau-grid", "0.01,abc", "--tau-grid: could not convert string to float: 'abc'"),
        ("--min-len-grid", "4,5,6;4,x,6",
         "--min-len-grid: not a comma-separated list of integers: '4,x,6'"),
        ("--min-len-grid", "4,5,6;4,5", "--min-len-grid: min_len needs 3 entries"),
        ("--tau-grid", "0.001,-1", "--tau-grid: rule_prob_threshold must be >= 0"),
    ])
    def test_a_bad_tuning_grid_entry_names_its_flag(self, pipeline, capsys, monkeypatch,
                                                    flag, value, message):
        # Every entry is read before the first grid point runs.
        runs = []
        monkeypatch.setattr(cli, "run_queries", lambda *a, **k: runs.append(a))
        rc = main([
            "tune-thresholds",
            "--dictionary", pipeline.paths["dictionary"],
            "--topics", pipeline.paths["topics"],
            "--index-dir", pipeline.index_dir,
            "--rules-file", pipeline.rules_file,
            "--qrels", pipeline.paths["qrels"],
            flag, value,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert runs == []


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

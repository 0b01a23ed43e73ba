"""Configuration round trips and the command-line pipeline end to end."""

from types import SimpleNamespace

import pytest

from affixgen.cli import main
from affixgen.config import (
    ExperimentConfig,
    apply_overrides,
    config_from_text,
    config_to_text,
    load_config,
    save_config,
)
from synthcorpus import build_world, world_files


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
        assert names == {
            "index.json",
            "postings.tsv",
            "doc_lens.tsv",
            "cooccurrence.json",
            "positions.tsv",
        }

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

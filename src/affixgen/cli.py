"""Command-line pipeline: index, mine rules, translate queries, retrieve,
evaluate, and tune noise thresholds.

Every value in ExperimentConfig is settable from a config file and
overridable with a same-named flag. All commands accept --emit-config to
write the effective configuration they ran with; the emitted file reloads
to the identical configuration.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus as corpus_mod, textfiles
from .config import (
    SECTIONS,
    ExperimentConfig,
    apply_overrides,
    load_config,
    save_config,
)
from .disambig import (
    BilingualDictionary,
    WeightedQuery,
    build_weighted_query,
    load_dictionary,
    load_topics,
    load_weighted_queries,
    save_weighted_queries,
)
from .morphgen import (
    FormationGenerator,
    NoiseFilterConfig,
    load_stem_table,
    save_formations,
)
from .retrieval import (
    RetrievalConfig,
    evaluate,
    load_qrels,
    load_run,
    paired_ttest,
    rank_queries,
    run_queries,
    save_eval,
    write_run,
)
from .rules import MedConfig, RuleTable, load_rules, mine_rules, save_rules


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affixgen",
        description="Affix rule mining and morphological query expansion "
        "for dictionary-based cross-language retrieval.",
    )
    sub = parser.add_subparsers(dest="command")

    p = _command(sub, "index", "Write a corpus's token positions as a snapshot.")
    p.set_defaults(func=cmd_index)

    p = _command(sub, "mine-rules", "Mine transformation rules from the index vocabulary.")
    p.set_defaults(func=cmd_mine_rules)

    p = _command(sub, "generate", "Dump filtered formations for given terms.")
    p.add_argument("--terms", help="comma-separated terms to expand")
    p.add_argument("--terms-file", help="file with one term per line")
    p.add_argument("--out", required=True, help="formation dump output path")
    p.set_defaults(func=cmd_generate)

    p = _command(sub, "translate", "Translate topics into weighted queries.")
    p.add_argument("--out", required=True, help="weighted query output path")
    p.set_defaults(func=cmd_translate)

    p = _command(sub, "retrieve", "Rank documents for weighted queries.")
    p.add_argument("--queries", required=True, help="weighted query file")
    p.add_argument("--out", required=True, help="run file output path")
    p.set_defaults(func=cmd_retrieve)

    p = _command(sub, "evaluate", "Score a run file against qrels.")
    p.add_argument("--run", required=True, help="run file to evaluate")
    p.add_argument("--out", help="also write metrics as TSV")
    p.set_defaults(func=cmd_evaluate)

    p = _command(sub, "ttest", "Paired significance test between two runs.")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--metric", choices=("ap", "p5", "p10"), default="ap")
    p.set_defaults(func=cmd_ttest)

    p = _command(sub, "tune-thresholds", "Cross-validate noise thresholds for ag mode.")
    p.add_argument("--tau-grid", default="0.0001,0.001,0.01")
    p.add_argument("--min-len-grid", default="4,5,6", help="semicolon-separated triples")
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--out", help="also write the tuning report")
    p.set_defaults(func=cmd_tune_thresholds)

    return parser


def _command(sub, name: str, help_text: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--emit-config", help="write the effective config here")
    defaults = ExperimentConfig()
    for section in SECTIONS.values():
        for key in section:
            flag = "--" + key.replace("_", "-")
            if isinstance(getattr(defaults, key), bool):
                p.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
            else:
                p.add_argument(flag, default=None, metavar="V")
    return p


def effective_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for section in SECTIONS.values():
        for key in section:
            value = getattr(args, key, None)
            if value is not None:
                overrides[key] = value
    apply_overrides(cfg, overrides)
    if args.emit_config:
        save_config(cfg, args.emit_config)
    return cfg


def _require(cfg: ExperimentConfig, *keys: str) -> None:
    for key in keys:
        if not getattr(cfg, key):
            raise ValueError(f"config key {key!r} is required for this command")


def _load_optional_stopwords(path: str):
    return corpus_mod.load_stopwords(path) if path else None


def _tagger(cfg: ExperimentConfig):
    return corpus_mod.load_pos_lexicon(cfg.pos_lexicon) if cfg.pos_lexicon else None


def cmd_index(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    _require(cfg, "corpus", "index_dir")
    stop = _load_optional_stopwords(cfg.stopwords)
    documents = corpus_mod.read_documents(cfg.corpus)
    manifest = corpus_mod.save_index(
        ((doc.doc_id, corpus_mod.tokenize(doc.text, stop)) for doc in documents),
        cfg.index_dir)
    print(f"indexed {manifest['num_docs']} documents, {manifest['vocabulary_size']} terms, "
          f"{manifest['total_tokens']} tokens")
    return 0


def cmd_mine_rules(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    _require(cfg, "index_dir", "rules_file")
    index = corpus_mod.load_index(cfg.index_dir)
    vocab = index.vocabulary
    if not vocab:
        raise ValueError("index vocabulary is empty, nothing to mine")
    table = mine_rules(vocab, _tagger(cfg), MedConfig(k_max=cfg.k_max))
    if len(table) == 0:
        raise ValueError(f"no rules mined within k_max={cfg.k_max}")
    save_rules(replace(table, snapshot=index.fingerprint), cfg.rules_file)
    print(f"mined {len(table)} rules from {len(vocab)} terms "
          f"(total pair count {table.total_count})")
    return 0


def _load_rules(cfg: ExperimentConfig, index: corpus_mod.CollectionIndex) -> RuleTable:
    """The rules file, refused unless it was mined from the snapshot in ``index_dir``."""
    rules = load_rules(cfg.rules_file)
    if rules.snapshot != index.fingerprint:
        manifest = Path(cfg.index_dir) / "index.json"
        raise ValueError(
            f"rules file {cfg.rules_file} records snapshot "
            f"{rules.snapshot or '(none)'}, but {manifest} is snapshot {index.fingerprint}; "
            f"re-run `affixgen mine-rules` on {cfg.index_dir}")
    return rules


def _noise_config(cfg: ExperimentConfig) -> NoiseFilterConfig:
    return NoiseFilterConfig(
        rule_prob_threshold=cfg.rule_prob_threshold,
        min_len=cfg.min_len_map(),
        context_window=cfg.context_window,
        require_context=cfg.require_context,
    )


def _generator(cfg: ExperimentConfig, index: corpus_mod.CollectionIndex) -> FormationGenerator:
    """The formation generator over ``index``'s vocabulary and its rules file."""
    return FormationGenerator(index.vocabulary, _load_rules(cfg, index), _tagger(cfg),
                              _noise_config(cfg), MedConfig(k_max=cfg.k_max))


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    _require(cfg, "index_dir", "rules_file")
    terms: list[str] = []
    if args.terms:
        terms.extend(t.strip() for t in args.terms.split(",") if t.strip())
    if args.terms_file:
        terms.extend(line.strip() for _, line in textfiles.lines(args.terms_file))
    if not terms:
        raise ValueError("no input terms: pass --terms or --terms-file")
    generator = _generator(cfg, corpus_mod.load_index(cfg.index_dir))
    candidates = []
    for term in terms:
        candidates.extend(generator.generate(term))
    save_formations(candidates, args.out)
    print(f"generated {len(candidates)} formations for {len(terms)} terms")
    return 0


def _build_queries(
    cfg: ExperimentConfig,
    topics: list[tuple[str, str]],
    dictionary: BilingualDictionary,
    index,
    cooc,
    generator,
    stemmer,
) -> list[WeightedQuery]:
    source_stop = _load_optional_stopwords(cfg.source_stopwords)
    queries = []
    for qid, title in topics:
        terms = corpus_mod.tokenize(title, source_stop)
        if not terms:
            print(f"warning: query {qid} has no terms after tokenization",
                  file=sys.stderr)
            continue
        queries.append(
            build_weighted_query(
                qid,
                terms,
                dictionary,
                mode=cfg.mode,
                weighting=cfg.weighting,
                index=index,
                cooc=cooc,
                generator=generator,
                stemmer=stemmer,
                ngram_n=cfg.ngram_n,
                itd_max_iters=cfg.itd_max_iters,
                itd_eps=cfg.itd_eps,
            )
        )
    if not queries:
        raise ValueError("no usable queries in the topics file")
    return queries


def _translation_resources(cfg: ExperimentConfig):
    _require(cfg, "topics", "index_dir")
    if cfg.monolingual:
        dictionary = BilingualDictionary({})
    else:
        _require(cfg, "dictionary")
        dictionary = load_dictionary(cfg.dictionary)
    snapshot = corpus_mod.read_snapshot(cfg.index_dir)
    index = snapshot.collection_index()
    needs_cooc = cfg.weighting in ("itd", "2g") or (
        cfg.mode == "ag" and cfg.require_context
    )
    cooc = snapshot.cooccurrence(cfg.context_window) if needs_cooc else None
    generator = None
    if cfg.mode == "ag":
        _require(cfg, "rules_file")
        generator = _generator(cfg, index)
    stemmer = load_stem_table(cfg.stem_table) if cfg.stem_table else None
    topics = load_topics(cfg.topics)
    return topics, dictionary, index, cooc, generator, stemmer


def cmd_translate(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    topics, dictionary, index, cooc, generator, stemmer = _translation_resources(cfg)
    queries = _build_queries(cfg, topics, dictionary, index, cooc, generator, stemmer)
    save_weighted_queries(queries, args.out)
    print(f"translated {len(queries)} queries "
          f"(mode={cfg.mode}, weighting={cfg.weighting})")
    return 0


def _retrieval_config(cfg: ExperimentConfig) -> RetrievalConfig:
    return RetrievalConfig(
        mu=cfg.mu,
        top_k=cfg.top_k,
        prf_docs=cfg.prf_docs,
        prf_terms=cfg.prf_terms,
        prf_lambda=cfg.prf_lambda,
        prf_noise=cfg.prf_noise,
    )


def cmd_retrieve(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    _require(cfg, "index_dir")
    index = corpus_mod.load_index(cfg.index_dir)
    queries = load_weighted_queries(args.queries)
    rankings = rank_queries(queries, index, _retrieval_config(cfg), prf=cfg.prf)
    written = write_run(rankings, cfg.run_tag, args.out)
    print(f"ranked {written} queries into {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    _require(cfg, "qrels")
    run = load_run(args.run)
    result = evaluate(run, load_qrels(cfg.qrels))
    print(f"map\t{result.map:.4f}")
    print(f"p5\t{result.p5:.4f}")
    print(f"p10\t{result.p10:.4f}")
    for level, value in zip(range(11), result.interpolated):
        print(f"iprec_at_{level / 10:.1f}\t{value:.4f}")
    print(f"queries\t{len(result.per_query)}")
    if result.excluded:
        print(f"excluded\t{','.join(result.excluded)}")
    if args.out:
        save_eval(result, args.out)
    return 0


def cmd_ttest(args: argparse.Namespace) -> int:
    cfg = effective_config(args)
    _require(cfg, "qrels")
    qrels = load_qrels(cfg.qrels)
    eval_a = evaluate(load_run(args.run_a), qrels)
    eval_b = evaluate(load_run(args.run_b), qrels)
    common = sorted(set(eval_a.per_query) & set(eval_b.per_query))
    if not common:
        raise ValueError("the two runs share no evaluable queries")
    pick = {"ap": lambda q: q.ap, "p5": lambda q: q.p5, "p10": lambda q: q.p10}[
        args.metric
    ]
    a = [pick(eval_a.per_query[qid]) for qid in common]
    b = [pick(eval_b.per_query[qid]) for qid in common]
    t, p = paired_ttest(a, b)
    mean_a = sum(a) / len(a)
    mean_b = sum(b) / len(b)
    print(f"metric\t{args.metric}")
    print(f"queries\t{len(common)}")
    print(f"mean_a\t{mean_a:.4f}")
    print(f"mean_b\t{mean_b:.4f}")
    print(f"t\t{t:.4f}")
    print(f"p\t{p:.6g}")
    print(f"significant_at_0.05\t{'yes' if p < 0.05 else 'no'}")
    return 0


def cmd_tune_thresholds(args: argparse.Namespace) -> int:
    # Tuning always runs ag; set it before --emit-config writes the file.
    args.mode = "ag"
    cfg = effective_config(args)
    _require(cfg, "qrels")
    try:
        taus = [float(v) for v in args.tau_grid.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"--tau-grid: {exc}") from None
    len_grids = [g.strip() for g in args.min_len_grid.split(";") if g.strip()]
    try:
        for min_len in len_grids:
            replace(cfg, min_len=min_len).min_len_map()
    except ValueError as exc:
        raise ValueError(f"--min-len-grid: {exc}") from None
    if not taus or not len_grids:
        raise ValueError("empty tuning grid")
    if args.folds < 2:
        raise ValueError("tuning needs at least 2 folds")
    qrels = load_qrels(cfg.qrels)
    topics, dictionary, index, cooc, base, stemmer = _translation_resources(cfg)

    usable = [(qid, title) for qid, title in topics if qrels.relevant.get(qid)]
    if len(usable) < args.folds:
        raise ValueError("not enough judged topics to form folds")
    order = list(usable)
    random.Random(cfg.seed).shuffle(order)
    folds = [order[i :: args.folds] for i in range(args.folds)]

    rcfg = _retrieval_config(cfg)

    def run_map(topic_subset, tau: float, min_len: str) -> float:
        variant = replace(cfg, rule_prob_threshold=tau, min_len=min_len)
        generator = base.with_noise(_noise_config(variant))
        queries = _build_queries(variant, topic_subset, dictionary, index, cooc,
                                 generator, stemmer)
        run = run_queries(queries, index, rcfg, cfg.run_tag, prf=cfg.prf)
        return evaluate(run, qrels).map

    lines = []
    test_maps = []
    for held_out in range(args.folds):
        train = [t for f, fold in enumerate(folds) if f != held_out for t in fold]
        best = None
        for tau in taus:
            for min_len in len_grids:
                score = run_map(train, tau, min_len)
                lines.append(
                    f"fold {held_out}\ttrain\ttau={tau!r}\tmin_len={min_len}\t"
                    f"map={score:.4f}"
                )
                key = (score, -tau, min_len)
                if best is None or key > best[0]:
                    best = (key, tau, min_len)
        _, tau, min_len = best
        test_score = run_map(folds[held_out], tau, min_len)
        test_maps.append(test_score)
        lines.append(
            f"fold {held_out}\ttest\ttau={tau!r}\tmin_len={min_len}\t"
            f"map={test_score:.4f}"
        )
    lines.append(f"mean_test_map\t{sum(test_maps) / len(test_maps):.4f}")
    report = "\n".join(lines)
    print(report)
    if args.out:
        with textfiles.replacing(args.out) as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

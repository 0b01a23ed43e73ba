"""affixgen benchmark: one command, three workloads.

    python3 bench/run.py --workload {build,ag-query,prf-query} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it imports the program from ``src/``.
Each workload is one process with one closed-loop client: the next
operation starts when the previous one has returned.

* ``build``: an operation is ``affixgen index`` followed by ``affixgen
  mine-rules``, called in-process through ``affixgen.cli.main`` on one
  generated collection. This is the write path.
* ``ag-query``: an operation translates one topic with ``mode=ag``,
  ``weighting=itd`` and ranks it with ``score_kl``.
* ``prf-query``: an operation translates one topic dictionary-only
  (``mode=none``, ``weighting=2g``), ranks it, expands it with
  ``prf_mixture`` and ranks the expanded query.

No topic repeats within a run. The query workloads read an index,
co-occurrence and rules snapshot that the program wrote in a separate
process; it is cached under ``bench/work/cache`` with a key that includes
the program's source.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The traced run also writes its spans to ``bench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
CACHE = WORK / "cache"
RESULTS = BENCH / "results"

WORKLOADS = ("build", "ag-query", "prf-query")
# Set-ups per query run: one before the warm-up, the others spread evenly
# over the timed phase, between operations, so that they sample the same
# machine states as the operations do. A build set-up (reading the corpus)
# takes about a millisecond, so it is repeated between every two timed
# operations instead.
SETUPS = {"ag-query": 5, "prf-query": 5}
BUILD_SETUPS_PER_OP = 3
MIN_BUILD_OPS = 5
# Untimed operations before the timed phase, so that first-call costs
# (allocator growth, page cache, lazily built state) stay out of the
# figures; a fixed number, so that every run of a seed does the same work.
# Query workloads warm up on topics from the end of the list, which the
# timed phase never reaches.
WARMUP_OPS = {"build": 6, "ag-query": 150, "prf-query": 15}
# The first EVAL_TOPICS operations of a query run always complete, whatever
# the run length; ``map`` and the brute-force ranking checks use them, so
# both are the same in every run of one seed. Fewer topics leave ``map``
# varying by several percent from seed to seed.
EVAL_TOPICS = {"ag-query": 1200, "prf-query": 150}
EVAL_BATCH = 50  # rankings handed to retrieval.evaluate at a time
BRUTE_FORCE_CHECKS = 25  # rankings per run compared with the brute-force scorer
DICT_COMPARE = 200  # topics on which MAP(ag) must beat dictionary-only MAP
MIN_RECOVERED = 0.8
CACHE_ENTRIES = 24

E2E_UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s",
    "peak_rss_mb": "MB", "snapshot_bytes_per_corpus_byte": "ratio", "map": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("build", "query", "baseline"),
                        help="collection size for a reference run; by default the build "
                             "workload uses 'build' and the query workloads 'query'")
    return parser.parse_args(argv)


# --- inputs ---------------------------------------------------------------------

def _source_digest(*extra: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [BENCH / "collection.py", BENCH / "prepare.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    for item in extra:
        digest.update(item.encode())
    return digest.hexdigest()[:16]


def ensure_collection(scale: str, seed: int, snapshot: bool) -> Path:
    """Generated files (and snapshot) for one seed, made in a child process."""
    key = _source_digest(scale, str(seed), str(snapshot))
    target = CACHE / f"{scale}-seed{seed}-{key}"
    if (target / "DONE").is_file():
        os.utime(target)
        return target
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = CACHE / f".tmp-{os.getpid()}-{target.name}"
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "prepare.py"), "--scale", scale,
           "--seed", str(seed), "--out", str(tmp)] + (["--snapshot"] if snapshot else [])
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise RuntimeError(f"preparing the {scale} collection failed:\n{proc.stderr}")
    (tmp / "DONE").write_text("")
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    entries = sorted((p for p in CACHE.iterdir() if not p.name.startswith(".")),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for old in entries[CACHE_ENTRIES:]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def tree_bytes(*paths: Path) -> int:
    total = 0
    for path in paths:
        files = [path] if path.is_file() else [p for p in path.rglob("*") if p.is_file()]
        total += sum(p.stat().st_size for p in files)
    return total


def tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(q for q in path.rglob("*") if q.is_file()):
        digest.update(str(p.relative_to(path)).encode())
        with open(p, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def planted_variants(truth_path: Path):
    """``qid -> set of the planted variants of its stems``, built on demand."""
    truth = json.loads(truth_path.read_text(encoding="utf-8"))
    topic_stems = {qid: tuple(stems) for qid, stems in truth["topic_stems"].items()}
    variants = {s: tuple(truth["variants"][s]) for s in truth["query_stems"]}
    del truth
    return lambda qid: {v for s in topic_stems[qid] for v in variants[s]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- shared pieces ----------------------------------------------------------------

class Run:
    """One workload run: the program's modules, settings, tracer and tallies."""

    def __init__(self, args, tracer) -> None:
        from affixgen import cli, corpus, disambig, morphgen, retrieval, rules
        from affixgen.config import ExperimentConfig

        self.cli, self.corpus, self.disambig = cli, corpus, disambig
        self.morphgen, self.retrieval, self.rules = morphgen, retrieval, rules
        self.args, self.tracer = args, tracer
        self.cfg = ExperimentConfig()
        self.rcfg = retrieval.RetrievalConfig(
            mu=self.cfg.mu, top_k=self.cfg.top_k, prf_docs=self.cfg.prf_docs,
            prf_terms=self.cfg.prf_terms, prf_lambda=self.cfg.prf_lambda,
            prf_noise=self.cfg.prf_noise)
        self.latencies: list[float] = []
        self.setup_times: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.correct = True
        self.evaluations = 0
        self.index_bytes = 0  # size of the index and co-occurrence snapshot

    def phase(self, name: str, op: int | None = None) -> None:
        if self.tracer is not None:
            self.tracer.phase, self.tracer.op = name, op

    def generator(self, index, rule_table):
        noise = self.morphgen.NoiseFilterConfig(
            rule_prob_threshold=self.cfg.rule_prob_threshold,
            min_len=self.cfg.min_len_map(), context_window=self.cfg.context_window,
            require_context=self.cfg.require_context)
        return self.morphgen.FormationGenerator(
            index.vocabulary, rule_table, None, noise, self.rules.MedConfig(k_max=self.cfg.k_max))

    def translate(self, qid, title, dictionary, mode, weighting, index, cooc, generator=None):
        return self.disambig.build_weighted_query(
            qid, self.corpus.tokenize(title), dictionary, mode=mode, weighting=weighting,
            index=index, cooc=cooc, generator=generator,
            itd_max_iters=self.cfg.itd_max_iters, itd_eps=self.cfg.itd_eps)

    def average_precisions(self, rankings: dict, qrels) -> list[float]:
        """Per-query AP from ``retrieval.evaluate``, in batches of EVAL_BATCH.

        Each value is checked against average precision computed here.
        """
        from checks import average_precision

        self.phase("eval")
        items = list(rankings.items())
        aps = []
        for start in range(0, len(items), EVAL_BATCH):
            batch = dict(items[start:start + EVAL_BATCH])
            self.evaluations += 1
            result = self.retrieval.evaluate(self.retrieval.RunFile("bench", batch), qrels)
            for qid, ranking in batch.items():
                ap = result.per_query[qid].ap
                mine = average_precision([d for d, _ in ranking], qrels.relevant[qid])
                if not math.isclose(ap, mine, rel_tol=1e-12, abs_tol=1e-12):
                    self.correct = False
                    self.errors.append(f"{qid}: AP {ap} differs from the recomputed {mine}")
                aps.append(ap)
        return aps

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def result(self, extra: dict) -> dict:
        lat = sorted(self.latencies)
        p90 = lat[max(0, math.ceil(0.9 * len(lat)) - 1)]
        values = {
            "setup_s": statistics.median(self.setup_times),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "ops_per_s": len(lat) / math.fsum(lat),
            **extra,
        }
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in E2E_UNITS.items()}


def timed_loop(run: Run, seconds: float, minimum: int, limit: int, op, after,
               set_up=None, setups: int = 0) -> None:
    """Closed loop: ``op(i)`` back to back until ``seconds`` have passed.

    Only ``op`` is timed; ``after(i, output)`` (checks and bookkeeping) runs
    between operations, outside the timed interval. The warm-up operations
    ``op(-1)``, ``op(-2)``, ... come first and are neither timed nor counted.
    ``set_up()`` runs ``setups`` times between operations, once each time
    another ``1 / (setups + 1)`` of ``seconds`` has passed; the time it takes
    is left out of ``seconds``.
    """
    run.phase("warmup")
    for i in range(1, WARMUP_OPS[run.args.workload] + 1):
        op(-i)
    start = time.perf_counter()
    paused = 0.0
    done = 0
    i = 0
    while i < limit and (i < minimum or time.perf_counter() - start - paused < seconds):
        run.phase("op", i)
        t0 = time.perf_counter()
        try:
            output = op(i)
        except Exception as exc:  # a failed operation is counted, the run goes on
            run.latencies.append(time.perf_counter() - t0)
            run.phase("check")
            run.fail(f"operation {i} raised {exc!r}")
        else:
            run.latencies.append(time.perf_counter() - t0)
            run.phase("check")
            after(i, output)
        i += 1
        elapsed = time.perf_counter() - start - paused
        if done < setups and elapsed >= (done + 1) * seconds / (setups + 1):
            t0 = time.perf_counter()
            set_up()
            paused += time.perf_counter() - t0
            done += 1
    if i == limit and time.perf_counter() - start - paused < seconds:
        print(f"warning: all {limit} inputs used before {seconds} s", file=sys.stderr)
    for _ in range(done, setups):
        set_up()


# --- build ---------------------------------------------------------------------------

def run_build(run: Run) -> dict:
    from checks import Truth, check_cooccurrence, check_index, check_rules

    corpus, cli = run.corpus, run.cli
    coll = ensure_collection(run.args.scale or "build", run.args.seed, snapshot=False)
    corpus_path = coll / "corpus.tsv"

    def read_inputs() -> None:
        run.phase("setup")
        for _ in range(BUILD_SETUPS_PER_OP):
            t0 = time.perf_counter()
            corpus.read_documents(corpus_path)
            run.setup_times.append(time.perf_counter() - t0)

    out_root = WORK / f"build-{os.getpid()}"
    shutil.rmtree(out_root, ignore_errors=True)
    first, scratch = out_root / "first", out_root / "op"
    digests: list[str] = []
    sink = io.StringIO()

    def target(i: int) -> Path:
        return first if i == 0 else scratch

    def op(i: int):
        out = target(i)
        with contextlib.redirect_stdout(sink):
            codes = [cli.main(["index", "--corpus", str(corpus_path),
                               "--index-dir", str(out / "snap")])]
            if codes[0] == 0:
                codes.append(cli.main(["mine-rules", "--index-dir", str(out / "snap"),
                                       "--rules-file", str(out / "rules.tsv")]))
        return codes

    def after(i: int, codes) -> None:
        sink.seek(0)
        sink.truncate()
        out = target(i)
        if any(codes):
            run.fail(f"operation {i}: affixgen exited with {codes}")
        else:
            digests.append(tree_digest(out))
            if digests[-1] != digests[0]:
                run.fail(f"operation {i}: output differs from the first operation's")
        if i > 0:
            shutil.rmtree(out, ignore_errors=True)
        read_inputs()

    # Warm-up operations write into the scratch directory and are not checked.
    def warm_op(i: int):
        codes = op(i)
        shutil.rmtree(scratch, ignore_errors=True)
        if any(codes):
            raise RuntimeError(f"warm-up: affixgen exited with {codes}")
        return codes

    try:
        timed_loop(run, run.args.seconds, MIN_BUILD_OPS, sys.maxsize,
                   lambda i: warm_op(i) if i < 0 else op(i), after)
        peak = peak_rss_mb()

        # The first operation's output is checked against the ground truth;
        # every later one was checked to be byte-identical to it.
        run.phase("eval")
        truth = Truth(json.loads((coll / "truth.json").read_text(encoding="utf-8")),
                      json.loads((coll / "tokens.json").read_text(encoding="utf-8")))
        rng = random.Random(run.args.seed)
        index = corpus.load_index(first / "snap")
        cooc = corpus.load_cooccurrence(first / "snap")
        rule_table = run.rules.load_rules(first / "rules.tsv")
        errors = (check_index(index, truth, rng) + check_cooccurrence(cooc, truth, rng)
                  + check_rules(rule_table, truth, run.rules, run.morphgen, rng))
        if errors:
            run.failed = len(run.latencies)
            run.errors.extend(errors)

        # MAP of the ag pipeline on the freshly written snapshot, outside the
        # operations: a faster build that loses rules or counts shows here.
        dictionary = run.disambig.load_dictionary(coll / "dictionary.tsv")
        topics = run.disambig.load_topics(coll / "topics.tsv")
        qrels = run.retrieval.load_qrels(coll / "qrels.txt")
        gen = run.generator(index, rule_table)
        maps = {}
        for mode, weighting in (("ag", "itd"), ("none", "2g")):
            rankings = {qid: run.retrieval.score_kl(
                run.translate(qid, title, dictionary, mode, weighting, index, cooc, gen),
                index, run.rcfg) for qid, title in topics}
            maps[mode] = statistics.fmean(run.average_precisions(rankings, qrels))
        if not maps["ag"] > maps["none"]:
            run.correct = False
            run.errors.append(f"MAP with ag {maps['ag']} does not exceed "
                              f"dictionary-only MAP {maps['none']}")
        snapshot = tree_bytes(first / "snap", first / "rules.tsv")
        run.index_bytes = tree_bytes(first / "snap")
        return run.result({
            "peak_rss_mb": peak, "map": maps["ag"],
            "snapshot_bytes_per_corpus_byte": snapshot / corpus_path.stat().st_size,
        })
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


# --- queries ---------------------------------------------------------------------------

def run_query(run: Run) -> dict:
    from checks import Truth, check_ranking, weights_sum_to_one

    corpus, retrieval = run.corpus, run.retrieval
    workload = run.args.workload
    ag = workload == "ag-query"
    coll = ensure_collection(run.args.scale or "query", run.args.seed, snapshot=True)
    snap, rules_path = coll / "snap", coll / "rules.tsv"
    dictionary = run.disambig.load_dictionary(coll / "dictionary.tsv")
    topics = run.disambig.load_topics(coll / "topics.tsv")
    qrels = retrieval.load_qrels(coll / "qrels.txt")
    # Only what the per-operation check needs stays in memory through the
    # timed phase: each topic's stems and the query stems' variants.
    planted_of = planted_variants(coll / "truth.json") if ag else None
    n_eval = EVAL_TOPICS[workload]

    # Set-up: what every translate or retrieve call pays before its first
    # query. The previous state is dropped before the next is loaded.
    state: dict = {}

    def set_up() -> None:
        run.phase("setup")
        state.clear()
        gc.collect()
        t0 = time.perf_counter()
        index = corpus.load_index(snap)
        cooc = corpus.load_cooccurrence(snap)
        gen = run.generator(index, run.rules.load_rules(rules_path)) if ag else None
        run.setup_times.append(time.perf_counter() - t0)
        state.update(index=index, cooc=cooc, gen=gen)

    set_up()

    if ag:
        def op(i: int):
            qid, title = topics[i]
            index = state["index"]
            query = run.translate(qid, title, dictionary, "ag", "itd", index,
                                  state["cooc"], state["gen"])
            return query, query, retrieval.score_kl(query, index, run.rcfg)
    else:
        def op(i: int):
            qid, title = topics[i]
            index = state["index"]
            query = run.translate(qid, title, dictionary, "none", "2g", index, state["cooc"])
            first = retrieval.score_kl(query, index, run.rcfg)
            expanded = retrieval.prf_mixture(first, index, run.rcfg, query)
            return query, expanded, retrieval.score_kl(expanded, index, run.rcfg)

    # Rankings are evaluated EVAL_BATCH at a time between operations, so the
    # memory they hold does not grow with the number of operations.
    batch: dict[str, list] = {}
    aps: list[float] = []
    samples: list[tuple[int, dict, list]] = []
    sample_every = max(1, n_eval // BRUTE_FORCE_CHECKS)
    recovered: list[float] = []

    def after(i: int, output) -> None:
        query, final, ranking = output
        qid = topics[i][0]
        dist = final.as_distribution()
        if not weights_sum_to_one(dist):
            run.fail(f"{qid}: query weights sum to {math.fsum(dist.values())}")
        elif ag:
            kept = {t.term for t in final.terms if t.provenance == "formation"}
            planted = planted_of(qid)
            share = len(kept & planted) / len(planted)
            recovered.append(share)
            if share < MIN_RECOVERED:
                run.fail(f"{qid}: only {share:.2f} of the planted variants recovered")
        else:
            added = len(set(dist) - set(query.as_distribution()))
            if added > run.rcfg.prf_terms:
                run.fail(f"{qid}: feedback added {added} > {run.rcfg.prf_terms} terms")
        if i < n_eval:
            batch[qid] = ranking
            if i % sample_every == 0:
                samples.append((i, dist, ranking))
            if len(batch) == EVAL_BATCH or i == n_eval - 1:
                aps.extend(run.average_precisions(batch, qrels))
                batch.clear()

    timed_loop(run, run.args.seconds, n_eval, len(topics) - WARMUP_OPS[workload], op, after,
               set_up, SETUPS[workload] - 1)
    peak = peak_rss_mb()
    if batch:  # left over when an operation among the first n_eval raised
        aps.extend(run.average_precisions(batch, qrels))

    run.phase("eval")
    index, cooc = state["index"], state["cooc"]
    truth = Truth(json.loads((coll / "truth.json").read_text(encoding="utf-8")),
                  json.loads((coll / "tokens.json").read_text(encoding="utf-8")))
    for i, dist, ranking in samples:
        errors = check_ranking(ranking, dist, truth, run.rcfg.mu, run.rcfg.top_k)
        if errors:
            run.fail(f"{topics[i][0]}: " + "; ".join(errors))
    value = statistics.fmean(aps)
    if ag:
        plain = {qid: retrieval.score_kl(
            run.translate(qid, title, dictionary, "none", "2g", index, cooc), index, run.rcfg)
            for qid, title in topics[:DICT_COMPARE]}
        ag_map = statistics.fmean(aps[:DICT_COMPARE])
        plain_map = statistics.fmean(run.average_precisions(plain, qrels))
        if not ag_map > plain_map:
            run.correct = False
            run.errors.append(f"MAP with ag {ag_map} does not exceed "
                              f"dictionary-only MAP {plain_map}")
        print(f"planted variants recovered: mean {statistics.fmean(recovered):.3f}, "
              f"min {min(recovered):.3f}; MAP on the first {DICT_COMPARE} topics: "
              f"ag {ag_map:.4f}, dictionary-only {plain_map:.4f}", file=sys.stderr)
    snapshot = tree_bytes(snap, rules_path)
    run.index_bytes = tree_bytes(snap)
    return run.result({
        "peak_rss_mb": peak, "map": value,
        "snapshot_bytes_per_corpus_byte": snapshot / (coll / "corpus.tsv").stat().st_size,
    })


# --- main ------------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "affixgen" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'affixgen'})", file=sys.stderr)
        return 2
    # Set iteration order drives the co-occurrence inner loop, so string
    # hashing is pinned to the seed: one seed, one order.
    if os.environ.get("PYTHONHASHSEED") != str(args.seed % 4294967296):
        env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 4294967296))
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path[:0] = [str(BENCH), str(SRC)]

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run = Run(args, tracer)
    metrics = run_build(run) if args.workload == "build" else run_query(run)
    for message in run.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = len(run.latencies)
    if tracer is not None:
        tracer.uninstall()
        from spans import per_layer_metrics

        units = {"op": attempted, "setup": len(run.setup_times), "eval": run.evaluations}
        layers = per_layer_metrics(tracer.spans, units)
        layers["corpus.snapshot_bytes"] = {"value": float(run.index_bytes), "unit": "bytes"}
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "end_to_end": metrics,
                            "probe_ms_per_op": tracer.probe_s * 1e3 / max(attempted, 1),
                            "per_layer": layers})
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
        metrics = layers
    print(json.dumps({"correct": run.correct, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Language-model retrieval, feedback, and ranked-list evaluation.

Documents are scored against weighted queries with a Dirichlet-smoothed
query-likelihood model, equivalent up to a query-constant shift to negative
KL divergence between the query distribution and the smoothed document
model. Pseudo-relevance feedback fits a fixed-noise mixture model over the
top-ranked documents, solved exactly in closed form (Zhang & Xu, IPM 2008),
and interpolates it with the original query.

Evaluation covers average precision, precision at fixed cutoffs, and the
11-point interpolated precision-recall curve, plus a paired two-tailed
t-test for comparing per-query metrics between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

from scipy import stats

from .corpus import CollectionIndex
from .disambig import (
    PROV_FEEDBACK,
    QueryTerm,
    WeightedQuery,
)

P_FLOOR = 1e-300

RECALL_LEVELS = tuple(i / 10 for i in range(11))


@dataclass(frozen=True)
class RetrievalConfig:
    mu: float = 1000.0
    top_k: int = 1000
    prf_docs: int = 30
    prf_terms: int = 50
    prf_lambda: float = 0.5
    prf_noise: float = 0.5

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.prf_docs < 1 or self.prf_terms < 1:
            raise ValueError("prf_docs and prf_terms must be >= 1")
        if not 0.0 <= self.prf_lambda <= 1.0:
            raise ValueError(f"prf_lambda must be in [0, 1], got {self.prf_lambda}")
        if not 0.0 <= self.prf_noise <= 1.0:
            raise ValueError(f"prf_noise must be in [0, 1], got {self.prf_noise}")


def score_kl(
    query: WeightedQuery, index: CollectionIndex, cfg: RetrievalConfig | None = None
) -> list[tuple[str, float]]:
    """Rank all documents for one weighted query.

    score(d) = sum_t p(t|q) * log((tf(t,d) + mu * p(t|C)) / (|d| + mu))

    Query terms absent from the collection are skipped. The sum decomposes
    into a per-document base depending only on document length plus posting
    corrections, so scoring touches each posting once. Ties are broken by
    ascending document id and the list is cut at ``top_k``.
    """
    cfg = cfg or RetrievalConfig()
    if index.num_docs == 0:
        raise ValueError("cannot score against an empty index")
    dist = query.as_distribution()
    if not dist:
        raise ValueError(f"query {query.query_id!r} is empty")
    mu = cfg.mu
    terms = [
        (t, w) for t, w in dist.items() if w > 0.0 and index.collection_freq.get(t, 0) > 0
    ]
    const = 0.0
    weight_sum = 0.0
    for t, w in terms:
        const += w * math.log(mu * index.p_collection(t))
        weight_sum += w
    scores = {
        doc_id: const - weight_sum * math.log(length + mu)
        for doc_id, length in index.doc_len.items()
    }
    for t, w in terms:
        baseline = mu * index.p_collection(t)
        log_baseline = math.log(baseline)
        for doc_id, tf in index.postings[t].items():
            scores[doc_id] += w * (math.log(tf + baseline) - log_baseline)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[: cfg.top_k]


def feedback_model(
    counts: dict[str, int], index: CollectionIndex, noise: float
) -> dict[str, float]:
    """Exact maximum-likelihood feedback model of a fixed-noise mixture.

    Each feedback-document token is explained either by the feedback model
    (weight ``1 - noise``) or by the fixed collection model (weight
    ``noise``). The maximizer has a closed form (Zhang & Xu, IPM 44(3),
    2008): with ``r = noise / (1 - noise)`` and ``q_t = p(t|C)``,
    ``p_t = c_t / nu - r * q_t``, where ``nu = sum(c) / (1 + r * sum(q))``
    over the support, the longest run of terms by descending ``c_t / q_t``
    whose ``p_t`` are all positive. Only the support is returned. With
    ``noise >= 1`` the likelihood does not depend on the feedback model, and
    the uniform distribution over the counted terms is returned.
    """
    if not any(counts.values()):
        raise ValueError("no feedback term counts")
    if noise >= 1.0:
        return {t: 1.0 / len(counts) for t in sorted(counts)}
    r = noise / (1.0 - noise)
    q = {t: index.p_collection(t) for t in counts}
    if min(q.values()) <= 0.0:
        raise ValueError("feedback terms must occur in the collection")
    order = sorted(counts, key=lambda t: (-counts[t] / q[t], t))
    c_sum = q_sum = 0.0
    kept, nu = 0, 1.0
    for t in order:
        c_sum += counts[t]
        q_sum += q[t]
        nu_here = c_sum / (1.0 + r * q_sum)
        # Once a prefix holds a term with p_t <= 0, so does every longer one.
        if counts[t] / nu_here - r * q[t] <= 0.0:
            break
        kept, nu = kept + 1, nu_here
    probs = {t: counts[t] / nu - r * q[t] for t in order[:kept]}
    return {t: p for t, p in probs.items() if p > 0.0}


def prf_mixture(
    ranking: Sequence[tuple[str, float]],
    index: CollectionIndex,
    cfg: RetrievalConfig,
    query: WeightedQuery,
) -> WeightedQuery:
    """Expand a query from its top-ranked documents.

    The feedback distribution, fitted in closed form to the tokens of the
    first ``prf_docs`` documents (``feedback_model``, Zhang & Xu 2008), is
    truncated to the strongest ``prf_terms`` terms, renormalized, and
    interpolated with the original query weights by ``prf_lambda``. With a
    zero interpolation weight the query is returned unchanged.
    """
    if cfg.prf_lambda == 0.0:
        return query
    fb_docs = {doc_id for doc_id, _ in ranking[: cfg.prf_docs]}
    if not fb_docs:
        return query
    counts: dict[str, int] = {}
    for term, plist in index.postings.items():
        # The key view intersects in C, iterating over the smaller side.
        common = plist.keys() & fb_docs
        if common:
            counts[term] = sum(plist[doc_id] for doc_id in common)
    if not counts:
        return query
    probs = feedback_model(counts, index, cfg.prf_noise)
    strongest = sorted(probs.items(), key=lambda kv: (-kv[1], kv[0]))[: cfg.prf_terms]
    total = sum(p for _, p in strongest)
    feedback = {t: p / total for t, p in strongest}

    lam = cfg.prf_lambda
    original = query.as_distribution()
    provenance = {qt.term: qt.provenance for qt in query.terms}
    merged: dict[str, float] = {
        t: (1.0 - lam) * w for t, w in original.items()
    }
    for t, p in feedback.items():
        merged[t] = merged.get(t, 0.0) + lam * p
    norm = sum(merged.values())
    terms = []
    for t in list(original) + sorted(
        (t for t in feedback if t not in original),
        key=lambda t: (-feedback[t], t),
    ):
        weight = merged[t] / norm
        if weight > 0.0:
            terms.append(QueryTerm(t, weight, provenance.get(t, PROV_FEEDBACK)))
    return WeightedQuery(query.query_id, terms)


@dataclass
class RunFile:
    """Ranked retrieval results for a batch of queries."""

    run_tag: str
    rankings: dict[str, list[tuple[str, float]]] = field(default_factory=dict)


def run_queries(
    queries: Iterable[WeightedQuery],
    index: CollectionIndex,
    cfg: RetrievalConfig | None = None,
    run_tag: str = "affixgen",
    prf: bool = False,
) -> RunFile:
    """Score every query, optionally with one round of feedback.

    The feedback pass ranks at least ``prf_docs`` documents; ``top_k`` cuts
    only the final ranking.
    """
    cfg = cfg or RetrievalConfig()
    first_cfg = replace(cfg, top_k=max(cfg.top_k, cfg.prf_docs)) if prf else cfg
    run = RunFile(run_tag)
    for query in queries:
        ranking = score_kl(query, index, first_cfg)
        if prf:
            ranking = score_kl(prf_mixture(ranking, index, cfg, query), index, cfg)
        run.rankings[query.query_id] = ranking
    return run


def save_run(run: RunFile, path: str | Path) -> None:
    """Write the standard six-column ranked-run format.

    Raises ``ValueError``, before creating the file, for an empty tag or id
    or one holding whitespace, which ``load_run`` could not read back.
    """
    for qid, ranking in run.rankings.items():
        for name in (run.run_tag, qid, *(doc_id for doc_id, _ in ranking)):
            if name.split() != [name]:
                raise ValueError(f"run file field {name!r} is empty or holds whitespace")
    with open(path, "w", encoding="utf-8") as handle:
        for qid, ranking in run.rankings.items():
            for rank, (doc_id, score) in enumerate(ranking, 1):
                handle.write(f"{qid} Q0 {doc_id} {rank} {score!r} {run.run_tag}\n")


def load_run(path: str | Path) -> RunFile:
    """Read a six-column run file.

    Within a query, ranks count up from 1, scores are finite and never
    increase, and no document appears twice; a line that breaks one of these
    raises ValueError naming the file and line.
    """
    rankings: dict[str, list[tuple[str, float]]] = {}
    ranked: dict[str, set[str]] = {}
    tag = "unknown"
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 6 or fields[1] != "Q0":
                raise ValueError(f"{path}: malformed run line {lineno}")
            qid, _, doc_id, rank, score, tag = fields
            try:
                rank, value = int(rank), float(score)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            bucket, docs = rankings.setdefault(qid, []), ranked.setdefault(qid, set())
            if rank != len(bucket) + 1:
                raise ValueError(f"{path}: rank sequence broken at line {lineno}")
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {lineno}: score {score!r} is not finite")
            if bucket and value > bucket[-1][1]:
                raise ValueError(f"{path}: scores increase at line {lineno}")
            if doc_id in docs:
                raise ValueError(f"{path}: line {lineno}: document {doc_id!r} "
                                 f"is already ranked for query {qid!r}")
            docs.add(doc_id)
            bucket.append((doc_id, value))
    if not rankings:
        raise ValueError(f"{path}: no run entries found")
    return RunFile(tag, rankings)


@dataclass
class Qrels:
    """Binary relevance judgments: judged queries and their relevant sets."""

    relevant: dict[str, set[str]] = field(default_factory=dict)


def load_qrels(path: str | Path) -> Qrels:
    """Read four-column qrels; positive third-column grades mean relevant."""
    relevant: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(f"{path}: malformed qrels line {lineno}")
            qid, _, doc_id, grade = fields
            try:
                grade = int(grade)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            bucket = relevant.setdefault(qid, set())
            if grade > 0:
                bucket.add(doc_id)
    if not relevant:
        raise ValueError(f"{path}: no judgments found")
    return Qrels(relevant)


@dataclass
class QueryEval:
    ap: float
    p5: float
    p10: float
    interpolated: tuple[float, ...]


@dataclass
class EvalResult:
    map: float
    p5: float
    p10: float
    interpolated: tuple[float, ...]
    per_query: dict[str, QueryEval]
    excluded: list[str]


def evaluate(run: RunFile, qrels: Qrels) -> EvalResult:
    """Score a run against judgments.

    Queries without judgments, or judged with no relevant documents, are
    excluded from the averages and reported. Relevant documents never
    retrieved contribute zero precision to average precision.
    """
    per_query: dict[str, QueryEval] = {}
    excluded: list[str] = []
    for qid, ranking in run.rankings.items():
        rel = qrels.relevant.get(qid)
        if not rel:
            excluded.append(qid)
            continue
        per_query[qid] = _evaluate_query(ranking, rel)
    if not per_query:
        raise ValueError("no evaluable queries: nothing overlaps the judgments")
    n = len(per_query)
    mean_interp = tuple(
        sum(qe.interpolated[level] for qe in per_query.values()) / n
        for level in range(len(RECALL_LEVELS))
    )
    return EvalResult(
        map=sum(qe.ap for qe in per_query.values()) / n,
        p5=sum(qe.p5 for qe in per_query.values()) / n,
        p10=sum(qe.p10 for qe in per_query.values()) / n,
        interpolated=mean_interp,
        per_query=per_query,
        excluded=excluded,
    )


def _evaluate_query(ranking: Sequence[tuple[str, float]], rel: set[str]) -> QueryEval:
    hits = 0
    ap_sum = 0.0
    points: list[tuple[float, float]] = []
    hits_at = {5: 0, 10: 0}
    for rank, (doc_id, _) in enumerate(ranking, 1):
        if doc_id in rel:
            hits += 1
            ap_sum += hits / rank
            points.append((hits / len(rel), hits / rank))
            for cutoff in hits_at:
                if rank <= cutoff:
                    hits_at[cutoff] += 1
    interpolated = tuple(
        max((prec for recall, prec in points if recall >= level), default=0.0)
        for level in RECALL_LEVELS
    )
    return QueryEval(
        ap=ap_sum / len(rel),
        p5=hits_at[5] / 5,
        p10=hits_at[10] / 10,
        interpolated=interpolated,
    )


def save_eval(result: EvalResult, path: str | Path) -> None:
    """Write summary metrics and a per-query breakdown as TSV."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"map\t{result.map!r}\n")
        handle.write(f"p5\t{result.p5!r}\n")
        handle.write(f"p10\t{result.p10!r}\n")
        for level, value in zip(RECALL_LEVELS, result.interpolated):
            handle.write(f"iprec_at_{level:.1f}\t{value!r}\n")
        handle.write(f"num_queries\t{len(result.per_query)}\n")
        handle.write(f"excluded\t{','.join(result.excluded)}\n")
        for qid, qe in result.per_query.items():
            handle.write(f"query\t{qid}\t{qe.ap!r}\t{qe.p5!r}\t{qe.p10!r}\n")


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-tailed paired t-test over per-query metric pairs.

    Degenerate inputs get defined results: fewer than two pairs or identical
    samples give (0, 1); zero-variance nonzero differences drive p to the
    floor instead of underflowing to zero.
    """
    if len(a) != len(b):
        raise ValueError(f"sample sizes differ: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        return 0.0, 1.0
    diffs = [x - y for x, y in zip(a, b)]
    mean = math.fsum(diffs) / n
    var = math.fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), P_FLOOR
    t = mean / math.sqrt(var / n)
    p = 2.0 * float(stats.t.sf(abs(t), n - 1))
    if p <= 0.0:
        p = P_FLOOR
    return t, min(p, 1.0)

"""Language-model retrieval, feedback, and ranked-list evaluation.

Documents are scored against weighted queries with a Dirichlet-smoothed
query-likelihood model, equivalent up to a query-constant shift to negative
KL divergence between the query distribution and the smoothed document
model. Pseudo-relevance feedback fits a fixed-noise mixture model over the
top-ranked documents, solved exactly in closed form (Zhang & Xu, IPM 2008),
and interpolates it with the original query.

Evaluation covers average precision, precision at fixed cutoffs, and the
11-point interpolated precision-recall curve, plus a paired two-tailed
t-test for comparing per-query metrics between runs. Its p-value is the
regularized incomplete beta function I_x(df/2, 1/2), x = df / (df + t^2),
evaluated by Lentz's continued fraction (Press et al., *Numerical Recipes*,
section 6.4) with ``math.lgamma``, so the module needs only numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import textfiles
from .config import ExperimentConfig
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
    """Ranking and feedback settings; each field is the config key of its name."""

    mu: float = ExperimentConfig.mu
    top_k: int = ExperimentConfig.top_k
    prf_docs: int = ExperimentConfig.prf_docs
    prf_terms: int = ExperimentConfig.prf_terms
    prf_lambda: float = ExperimentConfig.prf_lambda
    prf_noise: float = ExperimentConfig.prf_noise

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
    into a base, ``const - sum_t p(t|q) * log(|d| + mu)``, computed once per
    distinct length, plus one correction ``w * (log(tf + b) - log b)`` per
    posting of each query term, with ``b = mu * p(t|C)``. Every query term's
    postings are gathered in one pass, concatenated in query order, and
    added with one ``np.add.at``, which adds them in that order, so each
    document's score is the same sequence of float additions as one term
    at a time. Logarithms are taken with ``math.log`` over the distinct
    lengths and over ``tf + b`` for tf up to each term's largest, so scores
    do not depend on numpy's vectorized ``log``. The ranking orders by
    descending score, ties by ascending document id, and is cut at
    ``top_k``: ``np.partition`` finds the top_k-th score, and only the
    documents that reach it, every tie at the cut among them, are sorted.
    """
    cfg = cfg or RetrievalConfig()
    if index.num_docs == 0:
        raise ValueError("cannot score against an empty index")
    dist = query.as_distribution()
    if not dist:
        raise ValueError(f"query {query.query_id!r} is empty")
    mu = cfg.mu
    terms = [(index.term_id[t], w) for t, w in dist.items() if w > 0.0 and t in index.term_id]
    ids = np.array([t for t, _ in terms], dtype=np.int64)
    weights = [w for _, w in terms]
    baselines = [mu * (cf / index.total_tokens) for cf in index.term_cf[ids].tolist()]
    log_baselines = [math.log(b) for b in baselines]
    const = 0.0
    weight_sum = 0.0
    for w, log_b in zip(weights, log_baselines):
        const += w * log_b
        weight_sum += w
    length_logs = np.array([math.log(n + mu) for n in index.length_values.tolist()])
    scores = (const - weight_sum * length_logs)[index.length_of]
    if terms:
        docs, tfs, starts, sizes = _gather(index.term_ptr, ids, index.term_docs, index.term_tfs)
        # The correction for every tf from 0 to each term's largest, one table.
        table, offsets = [], []
        tops = np.maximum.reduceat(tfs, starts).tolist()
        for w, b, log_b, top in zip(weights, baselines, log_baselines, tops):
            offsets.append(len(table))
            table.extend([w * (math.log(tf + b) - log_b) for tf in range(top + 1)])
        tfs += np.repeat(np.array(offsets, dtype=tfs.dtype), sizes)  # now table indices
        np.add.at(scores, docs, np.array(table)[tfs])
    neg = -scores
    if cfg.top_k < len(neg):
        pool = np.flatnonzero(neg <= np.partition(neg, cfg.top_k - 1)[cfg.top_k - 1])
    else:
        pool = np.arange(len(neg))
    ranked = pool[np.lexsort((index.id_rank[pool], neg[pool]))][: cfg.top_k]
    return list(zip(map(index.doc_ids.__getitem__, ranked.tolist()), scores[ranked].tolist()))


def _gather(ptr: np.ndarray, keys: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each column's rows ``ptr[k]:ptr[k + 1]`` of every key, concatenated in key order.

    Returns the gathered columns, then each key's start within them and its
    row count.
    """
    lo = ptr[keys]
    sizes = ptr[keys + 1] - lo
    starts = np.cumsum(sizes) - sizes
    rows = np.repeat(lo - starts, sizes)
    rows += np.arange(len(rows))
    return (*(column[rows] for column in columns), starts, sizes)


def feedback_model(
    ids: np.ndarray, counts: np.ndarray, index: CollectionIndex, noise: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact maximum-likelihood feedback model of a fixed-noise mixture.

    ``ids`` are distinct term ids, ascending, and ``counts`` their token
    counts in the feedback documents. Each token is explained either by the
    feedback model (weight ``1 - noise``) or by the fixed collection model
    (weight ``noise``). The maximizer has a closed form (Zhang & Xu, IPM
    44(3), 2008): with ``r = noise / (1 - noise)`` and ``q_t = p(t|C)``,
    ``p_t = c_t / nu - r * q_t``, where ``nu = sum(c) / (1 + r * sum(q))``
    over the support, the longest run of terms by descending ``c_t / q_t``
    (equal ratios by ascending id, so by ascending term) whose ``p_t`` are
    all positive. The running sums are sequential ``np.cumsum``s, the float
    additions of a loop over that order. Returns the support's ids, in that
    order, and their probabilities. With ``noise >= 1`` the likelihood does
    not depend on the feedback model, and the uniform distribution over the
    counted terms is returned.
    """
    if not counts.any():
        raise ValueError("no feedback term counts")
    if noise >= 1.0:
        return ids, np.full(len(ids), 1.0 / len(ids))
    r = noise / (1.0 - noise)
    q = index.term_cf[ids] / index.total_tokens
    if (q <= 0.0).any():
        raise ValueError("feedback terms must occur in the collection")
    order = np.lexsort((ids, -(counts / q)))
    ids, counts, q = ids[order], counts[order], q[order]
    nu = np.cumsum(counts, dtype=np.float64) / (1.0 + r * np.cumsum(q))
    # Once a prefix holds a term with p_t <= 0, so does every longer one.
    fails = counts / nu - r * q <= 0.0
    kept = int(np.argmax(fails)) if fails.any() else len(ids)
    probs = counts[:kept] / nu[kept - 1] - r * q[:kept]
    positive = probs > 0.0
    return ids[:kept][positive], probs[positive]


def prf_mixture(
    ranking: Sequence[tuple[str, float]],
    index: CollectionIndex,
    cfg: RetrievalConfig,
    query: WeightedQuery,
) -> WeightedQuery:
    """Expand a query from its top-ranked documents.

    The tokens of the first ``prf_docs`` documents are counted by term id
    from their forward slices, and the feedback distribution is fitted to
    them in closed form (``feedback_model``, Zhang & Xu 2008). It is
    truncated to the strongest ``prf_terms`` terms, equal probabilities by
    ascending id, and only those ids are turned back into terms. The
    truncated model is renormalized and interpolated with the original
    query weights by ``prf_lambda``. With a zero interpolation weight the
    query is returned unchanged.
    """
    if cfg.prf_lambda == 0.0:
        return query
    ids, counts = _feedback_counts(ranking[: cfg.prf_docs], index)
    if not len(ids):
        return query
    ids, probs = feedback_model(ids, counts, index, cfg.prf_noise)
    top = np.lexsort((ids, -probs))[: cfg.prf_terms]
    strongest = list(zip(map(index.terms.__getitem__, ids[top].tolist()), probs[top].tolist()))
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


def _feedback_counts(
    ranking: Sequence[tuple[str, float]], index: CollectionIndex
) -> tuple[np.ndarray, np.ndarray]:
    """Tokens per term in the ranked documents: term ids ascending, and counts.

    One ``bincount`` over the documents' (term id, tf) forward slices,
    gathered in one pass; a document ranked twice counts once, and an id the
    index does not hold counts nothing.
    """
    docs = {index.doc_number.get(doc_id) for doc_id, _ in ranking}
    docs.discard(None)
    if not docs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    terms, tfs, _, _ = _gather(index.doc_ptr, np.array(sorted(docs), dtype=np.int64),
                               index.doc_terms, index.doc_tfs)
    tallies = np.bincount(terms, weights=tfs)
    counted = np.flatnonzero(tallies)
    return counted, tallies[counted].astype(np.int64)


@dataclass
class RunFile:
    """Ranked retrieval results for a batch of queries."""

    run_tag: str
    rankings: dict[str, list[tuple[str, float]]] = field(default_factory=dict)


def rank_queries(
    queries: Iterable[WeightedQuery],
    index: CollectionIndex,
    cfg: RetrievalConfig | None = None,
    prf: bool = False,
) -> Iterator[tuple[str, list[tuple[str, float]]]]:
    """Rank each query as it is reached, optionally with one round of feedback.

    Yields ``(query id, ranking)``. The feedback pass ranks only the
    ``prf_docs`` documents that feedback reads, whatever ``top_k``, which
    cuts the final ranking.
    """
    cfg = cfg or RetrievalConfig()
    feedback_cfg = replace(cfg, top_k=cfg.prf_docs)
    for query in queries:
        if prf:
            feedback = score_kl(query, index, feedback_cfg)
            query = prf_mixture(feedback, index, cfg, query)
        yield query.query_id, score_kl(query, index, cfg)


def run_queries(
    queries: Iterable[WeightedQuery],
    index: CollectionIndex,
    cfg: RetrievalConfig | None = None,
    run_tag: str = ExperimentConfig.run_tag,
    prf: bool = False,
) -> RunFile:
    """Every ranking of ``rank_queries``, held in one run."""
    return RunFile(run_tag, dict(rank_queries(queries, index, cfg, prf)))


def write_run(
    rankings: Iterable[tuple[str, Sequence[tuple[str, float]]]], run_tag: str,
    path: str | Path,
) -> int:
    """Write the standard six-column ranked-run format, one ranking at a time.

    Each ranking is written as soon as it arrives, through
    ``textfiles.replacing``, so memory holds one ranking however many there
    are. Raises ``ValueError`` for an empty tag or id or one holding
    whitespace, which ``load_run`` could not read back; then, as on any
    other error, ``path`` is left as it was. Returns the number of rankings
    written.
    """
    written = 0
    with textfiles.replacing(path) as handle:
        for qid, ranking in rankings:
            names = [run_tag, qid, *(doc_id for doc_id, _ in ranking)]
            if " ".join(names).split() != names:  # load_run splits on whitespace
                bad = next(name for name in names if name.split() != [name])
                raise ValueError(f"run file field {bad!r} is empty or holds whitespace")
            handle.write("".join([f"{qid} Q0 {doc_id} {rank} {score!r} {run_tag}\n"
                                  for rank, (doc_id, score) in enumerate(ranking, 1)]))
            written += 1
    return written


def load_run(path: str | Path) -> RunFile:
    """Read a six-column run file.

    Within a query, ranks count up from 1, scores are finite and never
    increase, and no document appears twice; a line that breaks one of these
    raises ValueError naming the file and line.
    """
    rankings: dict[str, list[tuple[str, float]]] = {}
    ranked: dict[str, set[str]] = {}
    tag = "unknown"
    for lineno, line in textfiles.lines(path):
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
    for lineno, line in textfiles.lines(path):
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
    with textfiles.replacing(path) as handle:
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
    samples give (0, 1); zero-variance nonzero differences, and a p below the
    smallest normal float, give the floor ``P_FLOOR`` instead of zero. A pair
    whose difference is NaN or infinite raises ValueError naming the pair.
    """
    if len(a) != len(b):
        raise ValueError(f"sample sizes differ: {len(a)} vs {len(b)}")
    n = len(a)
    diffs = [x - y for x, y in zip(a, b)]
    for i, d in enumerate(diffs):
        if not math.isfinite(d):
            raise ValueError(f"pair {i}: {a[i]!r} - {b[i]!r} is not finite")
    if n < 2:
        return 0.0, 1.0
    mean = math.fsum(diffs) / n
    var = math.fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), P_FLOOR
    t = mean / math.sqrt(var / n)
    p = _t_two_sided_p(t, n - 1)
    if p < sys.float_info.min:  # underflowed, or subnormal and short of precision
        p = P_FLOOR
    return t, min(p, 1.0)


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom: I_x(df/2, 1/2).

    x = df / (df + t^2) and y = t^2 / (df + t^2) are each computed directly,
    since 1 - x loses y's precision when t^2 is small against df.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a, b = df / 2.0, 0.5
    x, y = df / (df + t2), t2 / (df + t2)
    log_x, log_y = -math.log1p(t2 / df), -math.log1p(df / t2)
    if x < (a + 1.0) / (a + b + 2.0):  # where the continued fraction converges fast
        return _incomplete_beta(a, b, x, log_x, log_y)
    return 1.0 - _incomplete_beta(b, a, y, log_y, log_x)


def _incomplete_beta(a: float, b: float, x: float, log_x: float, log_y: float) -> float:
    """I_x(a, b) by Lentz's continued fraction, given log x and log y = log(1 - x)."""
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * log_x + b * log_y) / a
    if front == 0.0:
        return 0.0
    tiny = 1e-300  # keeps Lentz's ratios away from zero
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return front * h
    raise ArithmeticError(f"incomplete beta I_x({a}, {b}) did not converge at x = {x}")

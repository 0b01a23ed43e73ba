"""Translation candidate weighting and weighted query construction.

Each query term contributes a candidate set: its dictionary translations plus
optional morphological formations generated from them. Weighting methods score
candidates by how strongly they associate with the candidates of the other
query terms in target-language co-occurrence statistics, then normalize per
term. Formations are scored against dictionary candidates only, so unreliable
formations cannot reinforce each other.

Two association-based methods are provided. Both read one edge list, computed
once per query by the one pass that applies the formation rule. The iterative
method starts from uniform weights and repeatedly adds association mass from
the other terms' current weights; the one-shot method sums joint
probabilities. Baselines (first translation, uniform, collection frequency)
ignore associations entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .corpus import CollectionIndex, CooccurrenceTable, PairCountMemo
from .morphgen import (
    FormationCandidate,
    FormationGenerator,
    context_filter,
    ngram_split,
)

JOINT = "joint"
MUTUAL_INFORMATION = "mi"

BASELINE_METHODS = ("top1", "unif", "coll")
ASSOCIATION_METHODS = ("itd", "2g")

PROV_DICTIONARY = "dictionary"
PROV_FORMATION = "formation"
PROV_FEEDBACK = "feedback"


@dataclass
class BilingualDictionary:
    entries_by_source: dict[str, list[str]] = field(default_factory=dict)

    def entries(self, term: str) -> list[str]:
        return list(self.entries_by_source.get(term, []))

    def __len__(self) -> int:
        return len(self.entries_by_source)


def load_dictionary(path: str | Path) -> BilingualDictionary:
    """Read ``source<TAB>cand1,cand2,...`` lines; repeated sources merge."""
    entries: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0]:
                raise ValueError(f"{path}: malformed dictionary line {lineno}")
            bucket = entries.setdefault(fields[0], [])
            for cand in fields[1].split(","):
                cand = cand.strip()
                if cand and cand not in bucket:
                    bucket.append(cand)
    return BilingualDictionary(entries)


def load_topics(path: str | Path) -> list[tuple[str, str]]:
    """Read ``query_id<TAB>title`` topic lines."""
    topics = []
    seen = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            qid, sep, title = line.partition("\t")
            if not sep or not qid:
                raise ValueError(f"{path}: malformed topic line {lineno}")
            if qid in seen:
                raise ValueError(f"{path}: duplicate query id {qid!r}")
            seen.add(qid)
            topics.append((qid, title))
    return topics


@dataclass
class TranslationCandidateSet:
    """Candidates for one query term, with per-term normalized weights."""

    query_term: str
    dict_candidates: list[str]
    formations: list[FormationCandidate] = field(default_factory=list)
    dict_weights: list[float] = field(default_factory=list)
    formation_weights: list[float] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.dict_candidates) + len(self.formations)


@dataclass(frozen=True)
class AssociationModel:
    """Edge weights between target-language terms from co-occurrence counts."""

    cooc: CooccurrenceTable
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (JOINT, MUTUAL_INFORMATION):
            raise ValueError(f"unknown association kind: {self.kind!r}")
        if self.cooc.total_windows <= 0:
            raise ValueError("association model needs a nonempty co-occurrence table")

    def edge(self, a: str, b: str) -> float:
        pair = self.cooc.pair_count(a, b)
        if pair == 0:
            return 0.0
        if self.kind == JOINT:
            return pair / self.cooc.total_windows
        ua = self.cooc.unigram_window_count[a]
        ub = self.cooc.unigram_window_count[b]
        return max(0.0, math.log(pair * self.cooc.total_windows / (ua * ub)))


def init_weights(
    sets: Sequence[TranslationCandidateSet],
) -> list[TranslationCandidateSet]:
    """Uniform starting weights over each term's candidates and formations."""
    for cs in sets:
        if cs.size == 0:
            raise ValueError(f"term {cs.query_term!r} has no candidates")
    return [_normalized(cs, [1.0] * cs.size) for cs in sets]


def _edge_lists(
    sets: Sequence[TranslationCandidateSet], assoc: AssociationModel
) -> list[list[list[tuple[int, int, float]]]]:
    """Per term and slot, the nonzero ``(other term, other slot, edge)`` it reads.

    Slots are a term's dictionary candidates, then its formations. Only
    dictionary candidates read the other terms' formations, so unreliable
    formations cannot reinforce each other. Lists run in summation order:
    other terms in turn, dictionary candidates first.
    """
    surfaces = [cs.dict_candidates + [f.surface for f in cs.formations] for cs in sets]
    dict_only = [cs.dict_candidates for cs in sets]
    edges = []
    for i, cs in enumerate(sets):
        rows = []
        for slot, cand in enumerate(surfaces[i]):
            targets = surfaces if slot < len(cs.dict_candidates) else dict_only
            rows.append([
                (ip, b, edge)
                for ip, reach in enumerate(targets) if ip != i
                for b, cand2 in enumerate(reach)
                if (edge := assoc.edge(cand, cand2))
            ])
        edges.append(rows)
    return edges


def _scores(
    edges, start: list[list[float]], weights: list[list[float]]
) -> list[list[float]]:
    """``start + sum(edge * weight)`` per slot, added in edge-list order."""
    out = []
    for rows, firsts in zip(edges, start):
        term = []
        for row, total in zip(rows, firsts):
            for ip, b, edge in row:
                total += edge * weights[ip][b]
            term.append(total)
        out.append(term)
    return out


def _normalized(cs: TranslationCandidateSet, row: list[float]) -> TranslationCandidateSet:
    """``cs`` weighted by ``row``, its slots in order, over the row's sum."""
    n = len(cs.dict_candidates)
    total = sum(row[:n]) + sum(row[n:])
    row = [x / total for x in row]
    return replace(cs, dict_weights=row[:n], formation_weights=row[n:])


@dataclass
class ItdResult:
    sets: list[TranslationCandidateSet]
    iterations: int
    converged: bool
    final_delta: float


def itd_weights(
    sets: Sequence[TranslationCandidateSet],
    assoc: AssociationModel,
    max_iters: int = 50,
    eps: float = 1e-6,
) -> ItdResult:
    """Iterate additive updates with per-term normalization to convergence.

    The association edges are computed once per query. In each iteration
    every candidate keeps its weight and adds, over the edges it reads (see
    ``_edge_lists``), the edge times the other candidate's weight; then each
    term's weights are normalized. Convergence is reached when no normalized
    weight moves by ``eps`` or more between consecutive iterations.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    edges = _edge_lists(sets, assoc)
    current = list(sets)
    iterations = 0
    converged = False
    delta = math.inf
    while iterations < max_iters:
        weights = [cs.dict_weights + cs.formation_weights for cs in current]
        raw = _scores(edges, weights, weights)
        iterations += 1
        current = [_normalized(cs, row) for cs, row in zip(current, raw)]
        delta = 0.0
        for cs, old_row in zip(current, weights):
            for old, new in zip(old_row, cs.dict_weights + cs.formation_weights):
                delta = max(delta, abs(new - old))
        if delta < eps:
            converged = True
            break
    return ItdResult(current, iterations, converged, delta)


def joint_weights_2g(
    sets: Sequence[TranslationCandidateSet], assoc: AssociationModel
) -> list[TranslationCandidateSet]:
    """One-shot weighting by summed joint probabilities with other terms.

    Candidates sum the same once-per-query edges as ``itd_weights``, with
    unit weights and no weight of their own. A term whose candidates all
    score zero falls back to uniform weights; single-term queries therefore
    come out uniform.
    """
    if assoc.kind != JOINT:
        raise ValueError("joint-probability weighting requires a joint association model")
    uniform = init_weights(sets)
    zeros = [[0.0] * cs.size for cs in sets]
    ones = [[1.0] * cs.size for cs in sets]
    scores = _scores(_edge_lists(sets, assoc), zeros, ones)
    return [
        _normalized(cs, row) if any(row) else u
        for cs, row, u in zip(sets, scores, uniform)
    ]


def baseline_weights(
    sets: Sequence[TranslationCandidateSet],
    method: str,
    index: CollectionIndex | None = None,
) -> list[TranslationCandidateSet]:
    """Association-free weighting; formations always get zero weight."""
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown baseline method: {method!r}")
    if method == "coll" and index is None:
        raise ValueError("collection-frequency weighting needs an index")
    out = []
    for cs in sets:
        n = len(cs.dict_candidates)
        if n == 0:
            raise ValueError(f"term {cs.query_term!r} has no dictionary candidates")
        if method == "top1":
            drow = [1.0] + [0.0] * (n - 1)
        elif method == "unif":
            drow = [1.0 / n] * n
        else:
            freqs = [float(index.cf(c)) for c in cs.dict_candidates]
            total = sum(freqs)
            drow = [f / total for f in freqs] if total > 0 else [1.0 / n] * n
        out.append(
            replace(
                cs,
                dict_weights=drow,
                formation_weights=[0.0] * len(cs.formations),
            )
        )
    return out


class QueryTerm(NamedTuple):
    term: str
    weight: float
    provenance: str


@dataclass
class WeightedQuery:
    query_id: str
    terms: list[QueryTerm]

    def as_distribution(self) -> dict[str, float]:
        dist: dict[str, float] = {}
        for qt in self.terms:
            dist[qt.term] = dist.get(qt.term, 0.0) + qt.weight
        return dist


MORPH_MODES = ("none", "split", "stem", "ag")


def build_candidate_sets(
    terms: Sequence[str],
    dictionary: BilingualDictionary,
    *,
    mode: str = "none",
    generator: FormationGenerator | None = None,
    cooc: CooccurrenceTable | None = None,
    stemmer: Callable[[str], str] | None = None,
) -> list[TranslationCandidateSet]:
    """Expand query terms into candidate sets for the chosen morphology mode.

    Out-of-vocabulary terms pass through verbatim as their own single
    candidate. In ``stem`` mode candidates are replaced by their stems (kept
    as they are without a stemmer) and deduplicated. In ``ag`` mode
    formations are generated from every dictionary candidate, deduplicated
    by surface (best rule probability wins), and filtered by co-occurrence
    with the query's dictionary candidates.
    """
    if mode not in MORPH_MODES:
        raise ValueError(f"unknown morphology mode: {mode!r}")
    sets = []
    for term in terms:
        cands = dictionary.entries(term)
        if not cands:
            cands = [term]
        if mode == "stem":
            cands = list(dict.fromkeys(cands if stemmer is None else map(stemmer, cands)))
        sets.append(TranslationCandidateSet(term, cands))

    if mode == "ag":
        if generator is None:
            raise ValueError("ag mode needs a formation generator")
        anchors = sorted({c for cs in sets for c in cs.dict_candidates})
        for cs in sets:
            pool: list[FormationCandidate] = []
            for cand in cs.dict_candidates:
                pool.extend(generator.generate(cand))
            pool.sort(key=lambda c: (-c.prob, c.surface, c.source))
            seen = set(cs.dict_candidates)
            formations = []
            for cand in pool:
                if cand.surface in seen:
                    continue
                seen.add(cand.surface)
                formations.append(cand)
            if generator.cfg.require_context:
                if cooc is None:
                    raise ValueError("context filtering needs a co-occurrence table")
                if cooc.window_size != generator.cfg.context_window:
                    raise ValueError(
                        "co-occurrence window does not match the configured "
                        f"context window ({cooc.window_size} != "
                        f"{generator.cfg.context_window})"
                    )
                formations = context_filter(formations, anchors, cooc)
            cs.formations = formations
    return sets


def weight_candidate_sets(
    sets: Sequence[TranslationCandidateSet],
    method: str,
    *,
    index: CollectionIndex | None = None,
    cooc: CooccurrenceTable | None = None,
    itd_max_iters: int = 50,
    itd_eps: float = 1e-6,
) -> list[TranslationCandidateSet]:
    if method in BASELINE_METHODS:
        return baseline_weights(sets, method, index)
    if method not in ASSOCIATION_METHODS:
        raise ValueError(f"unknown weighting method: {method!r}")
    if cooc is None:
        raise ValueError(f"{method} weighting needs a co-occurrence table")
    if method == "2g":
        return joint_weights_2g(sets, AssociationModel(cooc, JOINT))
    assoc = AssociationModel(cooc, MUTUAL_INFORMATION)
    return itd_weights(init_weights(sets), assoc, itd_max_iters, itd_eps).sets


def build_weighted_query(
    query_id: str,
    terms: Sequence[str],
    dictionary: BilingualDictionary,
    *,
    mode: str = "none",
    weighting: str = "unif",
    index: CollectionIndex | None = None,
    cooc: CooccurrenceTable | None = None,
    generator: FormationGenerator | None = None,
    stemmer: Callable[[str], str] | None = None,
    ngram_n: int = 5,
    itd_max_iters: int = 50,
    itd_eps: float = 1e-6,
) -> WeightedQuery:
    """Translate one query into a weighted target-language distribution.

    Every query term contributes equal mass, split among its candidates by
    the weighting method. In ``split`` mode each weighted candidate is then
    replaced by its character n-grams, which share its weight equally. Each
    co-occurrence pair is counted at most once per query.
    """
    if not terms:
        raise ValueError(f"query {query_id!r} has no terms")
    if cooc is not None:
        cooc = PairCountMemo(cooc)  # the context filter and the weighting share it
    sets = build_candidate_sets(
        terms, dictionary, mode=mode, generator=generator, cooc=cooc, stemmer=stemmer
    )
    sets = weight_candidate_sets(
        sets,
        weighting,
        index=index,
        cooc=cooc,
        itd_max_iters=itd_max_iters,
        itd_eps=itd_eps,
    )
    share = 1.0 / len(sets)
    merged: dict[str, float] = {}
    provenance: dict[str, str] = {}

    def add(term: str, weight: float, prov: str) -> None:
        if weight <= 0.0:
            return
        merged[term] = merged.get(term, 0.0) + weight
        provenance.setdefault(term, prov)

    for cs in sets:
        for cand, weight in zip(cs.dict_candidates, cs.dict_weights):
            if mode == "split":
                frags = ngram_split(cand, ngram_n)
                for frag in frags:
                    add(frag, weight * share / len(frags), PROV_DICTIONARY)
            else:
                add(cand, weight * share, PROV_DICTIONARY)
        for form, weight in zip(cs.formations, cs.formation_weights):
            add(form.surface, weight * share, PROV_FORMATION)

    total = sum(merged.values())
    if total <= 0.0:
        raise ValueError(f"query {query_id!r} produced no weighted terms")
    out = [
        QueryTerm(term, weight / total, provenance[term])
        for term, weight in merged.items()
    ]
    return WeightedQuery(query_id, out)


def save_weighted_queries(
    queries: Iterable[WeightedQuery], path: str | Path
) -> None:
    """Write queries as TSV: query id, term, weight, provenance."""
    with open(path, "w", encoding="utf-8") as handle:
        for query in queries:
            for qt in query.terms:
                handle.write(
                    f"{query.query_id}\t{qt.term}\t{qt.weight!r}\t{qt.provenance}\n"
                )


def load_weighted_queries(path: str | Path) -> list[WeightedQuery]:
    queries: dict[str, WeightedQuery] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}: malformed query line {lineno}")
            qid, term, weight, prov = fields
            try:
                weight = float(weight)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not (math.isfinite(weight) and weight >= 0.0):
                raise ValueError(f"{path}: line {lineno}: weight {fields[2]!r} "
                                 f"is not a finite number of 0 or more")
            query = queries.setdefault(qid, WeightedQuery(qid, []))
            query.terms.append(QueryTerm(term, weight, prov))
    if not queries:
        raise ValueError(f"{path}: no queries found")
    return list(queries.values())

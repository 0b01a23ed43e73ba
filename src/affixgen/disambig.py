"""Translation candidate weighting and weighted query construction.

Each query term contributes a candidate set: its dictionary translations plus
optional morphological formations generated from them. A query's slots are
each term's dictionary candidates, then its formations, term after term. Every
weighting method fills one score row over the slots and normalizes it per
term; a term whose slots sum to zero reads the method's fallback row. The
sets' weights are built once, from the final row.

The iterative (ITD) and one-shot (2G) methods score candidates by association
with the other terms' candidates in target-language co-occurrence, read from
one edge list per query. Formations are scored against dictionary candidates
only, so unreliable formations cannot reinforce each other. Baselines (first
translation, uniform, collection frequency) ignore associations entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import sub
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import textfiles
from .config import ExperimentConfig
from .corpus import CollectionIndex, CooccurrenceTable
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
    for lineno, line in textfiles.lines(path):
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
    for lineno, line in textfiles.lines(path):
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

    def edge_matrix(self, terms: Sequence[str]) -> list[list[float]]:
        """The edge between every two of ``terms``, from one ``pair_counts`` call."""
        counts, total = self.cooc.pair_counts(terms), self.cooc.total_windows
        unigram = self.cooc.unigram_window_count
        matrix = [[0.0] * len(terms) for _ in terms]
        for a, b in np.argwhere(np.triu(counts)).tolist():
            pair = int(counts[a, b])
            edge = (pair / total if self.kind == JOINT else
                    max(0.0, math.log(pair * total / (unigram[terms[a]] * unigram[terms[b]]))))
            matrix[a][b] = matrix[b][a] = edge
        return matrix


def init_weights(
    sets: Sequence[TranslationCandidateSet],
) -> list[TranslationCandidateSet]:
    """Uniform starting weights over each term's candidates and formations."""
    return _weighted(sets, _normalized(_spans(sets), _ones(sets)))


def _ones(sets: Sequence[TranslationCandidateSet]) -> list[float]:
    """A one on every slot; a term with no candidates is an error."""
    for cs in sets:
        if cs.size == 0:
            raise ValueError(f"term {cs.query_term!r} has no candidates")
    return [1.0] * sum(cs.size for cs in sets)


def _spans(sets: Sequence[TranslationCandidateSet]) -> list[tuple[int, int, int]]:
    """Each term's first slot, first formation slot and end on the flat numbering."""
    ends = list(accumulate([cs.size for cs in sets], initial=0))
    return [(a, a + len(cs.dict_candidates), b) for cs, a, b in zip(sets, ends, ends[1:])]


def _edge_lists(
    sets: Sequence[TranslationCandidateSet], assoc: AssociationModel
) -> list[list[tuple[int, float]]]:
    """Per slot, the nonzero ``(other slot, edge)`` pairs it reads.

    Only dictionary candidates read the other terms' formations, so
    unreliable formations cannot reinforce each other. Lists run in
    summation order: other terms in turn, dictionary candidates first. Every
    edge comes from one ``edge_matrix`` call over all the query's slots.
    """
    surfaces = [s for cs in sets for s in cs.dict_candidates + [f.surface for f in cs.formations]]
    matrix = assoc.edge_matrix(surfaces)
    spans = _spans(sets)
    edges = []
    for i, (start, mid, end) in enumerate(spans):
        for slot in range(start, end):
            row = matrix[slot]
            whole = slot < mid  # formations read dictionary slots only
            edges.append([
                (other, edge)
                for ip, (ostart, omid, oend) in enumerate(spans) if ip != i
                for other in range(ostart, oend if whole else omid)
                if (edge := row[other])
            ])
    return edges


def _scores(edges, start: list[float], weights: list[float]) -> list[float]:
    """``start + sum(edge * weight)`` per slot, added in edge-list order."""
    out = []
    for total, row in zip(start, edges):
        for other, edge in row:
            total += edge * weights[other]
        out.append(total)
    return out


def _normalized(spans: list[tuple[int, int, int]], row: list[float],
                fallback: list[float] | None = None) -> list[float]:
    """``row`` over each term's slot sum; a term whose slots sum to zero reads ``fallback``."""
    out = []
    for start, mid, end in spans:
        src = row if fallback is None or any(row[start:end]) else fallback
        total = sum(src[start:mid]) + sum(src[mid:end])
        out += [x / total for x in src[start:end]]
    return out


def _weighted(sets: Sequence[TranslationCandidateSet],
              row: list[float]) -> list[TranslationCandidateSet]:
    """``sets`` with their weights read off ``row``."""
    return [TranslationCandidateSet(cs.query_term, cs.dict_candidates, cs.formations,
                                    row[start:mid], row[mid:end])
            for cs, (start, mid, end) in zip(sets, _spans(sets))]


@dataclass
class ItdResult:
    sets: list[TranslationCandidateSet]
    iterations: int
    converged: bool
    final_delta: float


def itd_weights(
    sets: Sequence[TranslationCandidateSet],
    assoc: AssociationModel,
    max_iters: int = ExperimentConfig.itd_max_iters,
    eps: float = ExperimentConfig.itd_eps,
) -> ItdResult:
    """Iterate additive updates with per-term normalization to convergence.

    The association edges are computed once per query. In each iteration
    every candidate keeps its weight and adds, over the edges it reads (see
    ``_edge_lists``), the edge times the other candidate's weight; then each
    term's weights are normalized. Convergence is reached when no normalized
    weight moves by ``eps`` or more between consecutive iterations. The
    weights iterate as one row over the slots; the sets are built at the end.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    edges = _edge_lists(sets, assoc)
    spans = _spans(sets)
    weights = [w for cs in sets for w in cs.dict_weights + cs.formation_weights]
    for iterations in range(1, max_iters + 1):
        new = _normalized(spans, _scores(edges, weights, weights))
        delta = max(map(abs, map(sub, new, weights)), default=0.0)
        weights = new
        if converged := delta < eps:
            break
    return ItdResult(_weighted(sets, weights), iterations, converged, delta)


def joint_weights_2g(
    sets: Sequence[TranslationCandidateSet], assoc: AssociationModel
) -> list[TranslationCandidateSet]:
    """One-shot weighting by summed joint probabilities with other terms.

    Slots sum the same once-per-query edges as ``itd_weights``, with unit
    weights and no weight of their own. A term whose slots all score zero
    reads the fallback row of ones, uniform over its slots; single-term
    queries therefore come out uniform.
    """
    if assoc.kind != JOINT:
        raise ValueError("joint-probability weighting requires a joint association model")
    ones = _ones(sets)
    scores = _scores(_edge_lists(sets, assoc), [0.0] * len(ones), ones)
    return _weighted(sets, _normalized(_spans(sets), scores, ones))


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
    row, uniform = [], []
    for cs in sets:
        n = len(cs.dict_candidates)
        if n == 0:
            raise ValueError(f"term {cs.query_term!r} has no dictionary candidates")
        if method == "top1":
            scores = [1.0] + [0.0] * (n - 1)
        elif method == "unif":
            scores = [1.0] * n
        else:
            scores = [float(index.cf(c)) for c in cs.dict_candidates]
        zeros = [0.0] * len(cs.formations)
        row += scores + zeros
        uniform += [1.0] * n + zeros
    return _weighted(sets, _normalized(_spans(sets), row, uniform))


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
    mode: str = ExperimentConfig.mode,
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
            cs.formations = formations
        if generator.cfg.require_context:
            if cooc is None:
                raise ValueError("context filtering needs a co-occurrence table")
            if cooc.window_size != generator.cfg.context_window:
                raise ValueError(
                    "co-occurrence window does not match the configured "
                    f"context window ({cooc.window_size} != "
                    f"{generator.cfg.context_window})"
                )
            anchors = sorted({c for cs in sets for c in cs.dict_candidates})
            generated = [f for cs in sets for f in cs.formations]
            kept = {f.surface for f in context_filter(generated, anchors, cooc)}
            for cs in sets:
                cs.formations = [f for f in cs.formations if f.surface in kept]
    return sets


def weight_candidate_sets(
    sets: Sequence[TranslationCandidateSet],
    method: str,
    *,
    index: CollectionIndex | None = None,
    cooc: CooccurrenceTable | None = None,
    itd_max_iters: int = ExperimentConfig.itd_max_iters,
    itd_eps: float = ExperimentConfig.itd_eps,
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
    mode: str = ExperimentConfig.mode,
    weighting: str = ExperimentConfig.weighting,
    index: CollectionIndex | None = None,
    cooc: CooccurrenceTable | None = None,
    generator: FormationGenerator | None = None,
    stemmer: Callable[[str], str] | None = None,
    ngram_n: int = ExperimentConfig.ngram_n,
    itd_max_iters: int = ExperimentConfig.itd_max_iters,
    itd_eps: float = ExperimentConfig.itd_eps,
) -> WeightedQuery:
    """Translate one query into a weighted target-language distribution.

    Every query term contributes equal mass, split among its candidates by
    the weighting method. In ``split`` mode each weighted candidate is then
    replaced by its character n-grams, which share its weight equally. The
    context filter and the association weighting each count the query's
    co-occurrence pairs in one ``pair_counts`` call.
    """
    if not terms:
        raise ValueError(f"query {query_id!r} has no terms")
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
    with textfiles.replacing(path) as handle:
        for query in queries:
            for qt in query.terms:
                handle.write(
                    f"{query.query_id}\t{qt.term}\t{qt.weight!r}\t{qt.provenance}\n"
                )


def load_weighted_queries(path: str | Path) -> list[WeightedQuery]:
    queries: dict[str, WeightedQuery] = {}
    for lineno, line in textfiles.lines(path):
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

"""Independent brute-force reference implementations used by the tests.

Everything here is written directly from definitions, trading speed for
obviousness, so the optimized library code has something honest to be
checked against. Two helpers are not oracles but entry points into shipped
code that the library does not export: ``indel_distance`` runs the banded
kernel with an unbounded band, and ``itd_step`` one raw ITD update over the
shipped edge lists.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from affixgen.corpus import UNKNOWN_TAG
from affixgen.disambig import _edge_lists, _scores
from affixgen.morphgen import FormationCandidate
from affixgen.rules import (
    BEGIN,
    DELETE,
    END,
    INSERT,
    MIDDLE,
    Action,
    TransformationRule,
    _band,
    extract_rule,
)


def _lcs_table(a: str, b: str) -> list[list[int]]:
    """Classic longest-common-subsequence table over all prefix pairs."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table


def lcs_len(a: str, b: str) -> int:
    """Length of the longest common subsequence, read off the full table."""
    return _lcs_table(a, b)[len(a)][len(b)]


def indel_distance_lcs(a: str, b: str) -> int:
    """Insert/delete distance through the LCS identity, not through a DP of it."""
    return len(a) + len(b) - 2 * lcs_len(a, b)


def indel_distance(a: str, b: str) -> int:
    """The shipped banded kernel with a band wide enough for any pair."""
    return _band(a, b, len(a) + len(b))[0]


def _delete_pos(i: int, j: int, n: int) -> str:
    # Deleting w[i] from the partially transformed string w2[:j] + w[i:].
    if j == 0:
        return BEGIN
    if i == n - 1:
        return END
    return MIDDLE


def _insert_pos(i: int, j: int, n: int) -> str:
    # Inserting w2[j] into the partially transformed string w2[:j] + w[i:].
    if i == n:
        return END
    if j == 0:
        return BEGIN
    return MIDDLE


def canonical_action_list(w: str, w2: str) -> tuple[Action, ...]:
    """The one optimal alignment ``extract_rule`` promises, from the definition.

    The distance of every prefix pair is ``i + j - 2 * lcs(w[:i], w2[:j])``.
    Walking back from ``(n, m)``, a match is taken when the characters agree
    and the distance does not change, else a deletion from ``w`` when it
    costs exactly one, else an insertion. The moves are then tagged left to
    right against the partially transformed string.
    """
    n, m = len(w), len(w2)
    lcs = _lcs_table(w, w2)

    def dist(i: int, j: int) -> int:
        return i + j - 2 * lcs[i][j]

    moves: list[str] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and w[i - 1] == w2[j - 1] and dist(i - 1, j - 1) == dist(i, j):
            moves.append("match")
            i, j = i - 1, j - 1
        elif i > 0 and dist(i - 1, j) + 1 == dist(i, j):
            moves.append("delete")
            i -= 1
        else:
            moves.append("insert")
            j -= 1
    actions: list[Action] = []
    for move in reversed(moves):
        if move == "match":
            i, j = i + 1, j + 1
        elif move == "delete":
            actions.append(Action(DELETE, _delete_pos(i, j, n), w[i]))
            i += 1
        else:
            actions.append(Action(INSERT, _insert_pos(i, j, n), w2[j]))
            j += 1
    return tuple(actions)


def all_optimal_action_lists(w: str, w2: str) -> set[tuple[Action, ...]]:
    """Every optimal substitution-free alignment, as position-tagged actions.

    Enumerates all minimum-cost paths through the alignment grid (via the
    cost-to-go table) and tags each action against the partially transformed
    string, the same convention the library promises. Exponential in the
    number of optimal paths; only for short strings.
    """
    n, m = len(w), len(w2)
    results: set[tuple[Action, ...]] = set()
    togo = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n, -1, -1):
        for j in range(m, -1, -1):
            if i == n and j == m:
                togo[i][j] = 0
            else:
                best = math.inf
                if i < n:
                    best = min(best, togo[i + 1][j] + 1)
                if j < m:
                    best = min(best, togo[i][j + 1] + 1)
                if i < n and j < m and w[i] == w2[j]:
                    best = min(best, togo[i + 1][j + 1])
                togo[i][j] = best

    def forward(i: int, j: int, acc: list[Action]) -> None:
        if i == n and j == m:
            results.add(tuple(acc))
            return
        if i < n and j < m and w[i] == w2[j] and togo[i + 1][j + 1] == togo[i][j]:
            forward(i + 1, j + 1, acc)
        if i < n and togo[i + 1][j] + 1 == togo[i][j]:
            acc.append(Action(DELETE, _delete_pos(i, j, n), w[i]))
            forward(i + 1, j, acc)
            acc.pop()
        if j < m and togo[i][j + 1] + 1 == togo[i][j]:
            acc.append(Action(INSERT, _insert_pos(i, j, n), w2[j]))
            forward(i, j + 1, acc)
            acc.pop()

    forward(0, 0, [])
    return results


def mine_rules_bruteforce(vocab, tagger, k_max: int):
    """Unpruned ordered-pair enumeration; mirrors the published counting.

    Uses the library's extract_rule (canonicality is tested separately) but
    no signature filter, no banding, and the distance from the LCS identity.
    """
    words = sorted(set(vocab))
    counts: Counter[TransformationRule] = Counter()
    for a in words:
        for b in words:
            if a == b:
                continue
            d = indel_distance_lcs(a, b)
            if 1 <= d <= k_max:
                counts[extract_rule(a, b, tagger(a))] += 1
    total = sum(counts.values())
    probs = {rule: c / total for rule, c in counts.items()} if total else {}
    return counts, probs


def char_count_within_dense(words, w, k, start=0):
    """Rows from ``start`` on whose character counts lie within L1 ``k`` of ``w``.

    One dense rows-by-alphabet count matrix and one L1 per row; characters
    of ``w`` outside the words' alphabet count one each.
    """
    alphabet = sorted({c for word in words for c in word})
    char_index = {c: i for i, c in enumerate(alphabet)}
    sig = np.zeros((len(words), max(len(alphabet), 1)), dtype=np.int16)
    for row, word in enumerate(words):
        for c in word:
            sig[row, char_index[c]] += 1
    vec = np.zeros(sig.shape[1], dtype=np.int16)
    unknown = 0
    for c in w:
        if c in char_index:
            vec[char_index[c]] += 1
        else:
            unknown += 1
    l1 = np.abs(sig[start:] - vec).sum(axis=1) + unknown
    return np.nonzero(l1 <= k)[0] + start


def generate_formations_bruteforce(w, vocab, rules, cfg, k_max, tag=UNKNOWN_TAG,
                                   distance=indel_distance_lcs):
    """Formations of ``w`` from the definitions, scanning the whole vocabulary.

    Every other vocabulary word ``s`` at indel distance ``d`` in
    ``[1, k_max]`` (the LCS identity; ``distance`` may stand in for it if
    it agrees up to ``k_max`` and exceeds ``k_max`` beyond), at least
    ``cfg.min_len[d]`` long, whose canonical rule has probability at least
    ``cfg.rule_prob_threshold``; sorted by descending probability, then
    surface. No prefilter and no banded alignment.
    """
    out = []
    for s in sorted(set(vocab)):
        if s == w:
            continue
        d = distance(w, s)
        if d > k_max or len(s) < cfg.min_len[d]:
            continue
        rule = TransformationRule(canonical_action_list(w, s), tag)
        prob = rules.prob(rule)
        if prob >= cfg.rule_prob_threshold:
            out.append(FormationCandidate(s, w, rule, prob))
    out.sort(key=lambda c: (-c.prob, c.surface))
    return out


def index_bruteforce(token_docs):
    """Index statistics counted from ``(doc_id, tokens)`` pairs with Counters.

    Returns ``(postings, doc_len, collection_freq)``: term to document id to
    term frequency, document id to length in the order given, and term to
    collection frequency.
    """
    postings: dict[str, dict[str, int]] = {}
    doc_len: dict[str, int] = {}
    collection_freq: Counter[str] = Counter()
    for doc_id, tokens in token_docs:
        doc_len[doc_id] = len(tokens)
        for term, count in Counter(tokens).items():
            postings.setdefault(term, {})[doc_id] = count
        collection_freq.update(tokens)
    return postings, doc_len, collection_freq


def window_cooccurrence_bruteforce(token_docs, window_size):
    """Recount co-occurrence windows straight from the definition."""
    pair_counts: Counter[tuple[str, str]] = Counter()
    unigram: Counter[str] = Counter()
    total = 0
    for tokens in token_docs:
        if not tokens:
            continue
        if len(tokens) <= window_size:
            windows = [tokens]
        else:
            windows = [
                tokens[i : i + window_size]
                for i in range(len(tokens) - window_size + 1)
            ]
        for window in windows:
            total += 1
            seen = sorted(set(window))
            for t in seen:
                unigram[t] += 1
            for x in range(len(seen)):
                for y in range(x + 1, len(seen)):
                    pair_counts[(seen[x], seen[y])] += 1
    return pair_counts, unigram, total


def kl_score_bruteforce(dist, token_docs, mu):
    """Dirichlet query-likelihood scores computed term by term from tokens.

    ``token_docs`` maps doc_id to its token list. Query terms absent from
    the whole collection are skipped.
    """
    total_tokens = sum(len(toks) for toks in token_docs.values())
    coll = Counter()
    for toks in token_docs.values():
        coll.update(toks)
    scores = {}
    for doc_id, toks in token_docs.items():
        tf = Counter(toks)
        score = 0.0
        for term, weight in dist.items():
            if weight <= 0 or coll[term] == 0:
                continue
            p_c = coll[term] / total_tokens
            score += weight * math.log((tf[term] + mu * p_c) / (len(toks) + mu))
        scores[doc_id] = score
    return scores


def mixture_loglikelihood(counts, p_coll, noise, probs):
    """Log-likelihood of the feedback tokens under the fixed-noise mixture.

    Each token of term ``t`` has probability
    ``(1 - noise) * probs[t] + noise * p_coll[t]``; terms missing from
    ``probs`` have feedback probability zero.
    """
    return sum(
        c * math.log((1.0 - noise) * probs.get(t, 0.0) + noise * p_coll[t])
        for t, c in counts.items()
    )


def feedback_model_em(counts, p_coll, noise, tol=1e-15, max_iters=100_000):
    """EM for the fixed-noise feedback mixture, run until it converges.

    Starts from the uniform distribution over the counted terms. Each step
    gives every term its expected number of tokens drawn from the feedback
    model and renormalizes. The log-likelihood never decreases; the loop
    stops once a step raises it by no more than ``tol`` times its size
    (``converged`` is true) or after ``max_iters`` steps (false). With
    ``noise >= 1`` the likelihood does not depend on the feedback model, and
    the uniform start is returned as converged. Returns the distribution,
    the log-likelihood of every iterate, and ``converged``.
    """
    terms = sorted(counts)
    probs = {t: 1.0 / len(terms) for t in terms}
    history = [mixture_loglikelihood(counts, p_coll, noise, probs)]
    if noise >= 1.0:
        return probs, history, True
    for _ in range(max_iters):
        mass = {}
        for t in terms:
            fb = (1.0 - noise) * probs[t]
            mass[t] = counts[t] * fb / (fb + noise * p_coll[t])
        total = sum(mass.values())
        probs = {t: mass[t] / total for t in terms}
        history.append(mixture_loglikelihood(counts, p_coll, noise, probs))
        if history[-1] - history[-2] <= tol * abs(history[-1]):
            return probs, history, True
    return probs, history, False


def average_precision_bruteforce(ranking, relevant):
    """AP straight from the definition: mean precision at relevant ranks."""
    if not relevant:
        raise ValueError("undefined without relevant documents")
    precisions = []
    for rank in range(1, len(ranking) + 1):
        doc = ranking[rank - 1]
        if doc in relevant:
            retrieved = ranking[:rank]
            hits = len([d for d in retrieved if d in relevant])
            precisions.append(hits / rank)
    return sum(precisions) / len(relevant)


def precision_at_k_bruteforce(ranking, relevant, k):
    top = ranking[:k]
    return len([d for d in top if d in relevant]) / k


def interpolated_precision_bruteforce(ranking, relevant, levels):
    points = []
    hits = 0
    for rank, doc in enumerate(ranking, 1):
        if doc in relevant:
            hits += 1
            points.append((hits / len(relevant), hits / rank))
    out = []
    for level in levels:
        candidates = [p for r, p in points if r >= level]
        out.append(max(candidates) if candidates else 0.0)
    return out


def weights_2g_bruteforce(sets, cooc):
    """Direct evaluation of the joint-probability weighting equations.

    Dictionary candidates sum joint probabilities with the other terms'
    dictionary candidates and formations; formations sum joint
    probabilities with the other terms' dictionary candidates only. Each
    term normalizes independently, falling back to uniform when every
    member scores zero.
    """

    def joint(a, b):
        return cooc.pair_count(a, b) / cooc.total_windows

    weighted = []
    for i, cs in enumerate(sets):
        dict_scores = []
        for cand in cs.dict_candidates:
            score = 0.0
            for ip, other in enumerate(sets):
                if ip == i:
                    continue
                for cand2 in other.dict_candidates:
                    score += joint(cand, cand2)
                for form in other.formations:
                    score += joint(cand, form.surface)
            dict_scores.append(score)
        form_scores = []
        for form in cs.formations:
            score = 0.0
            for ip, other in enumerate(sets):
                if ip == i:
                    continue
                for cand2 in other.dict_candidates:
                    score += joint(form.surface, cand2)
            form_scores.append(score)
        total = sum(dict_scores) + sum(form_scores)
        if total == 0.0:
            size = len(dict_scores) + len(form_scores)
            dict_scores = [1.0 / size] * len(dict_scores)
            form_scores = [1.0 / size] * len(form_scores)
        else:
            dict_scores = [s / total for s in dict_scores]
            form_scores = [s / total for s in form_scores]
        weighted.append((dict_scores, form_scores))
    return weighted


def itd_step(sets, assoc):
    """One raw ITD update over the shipped edge lists, before normalization.

    Each candidate keeps its weight and adds, over the edges it reads, the
    edge times the other candidate's weight. Returns the per-term dictionary
    and formation rows.
    """
    weights = [cs.dict_weights + cs.formation_weights for cs in sets]
    raw = _scores(_edge_lists(sets, assoc), weights, weights)
    return (
        [row[: len(cs.dict_candidates)] for cs, row in zip(sets, raw)],
        [row[len(cs.dict_candidates) :] for cs, row in zip(sets, raw)],
    )


def weights_itd_bruteforce(sets, cooc, max_iters, eps):
    """Direct iteration of the ITD weighting equations from uniform weights.

    Each step gives every candidate its own weight plus the mutual
    information with each other term's candidates times their current
    weights: dictionary candidates read the other terms' dictionary
    candidates and formations, formations read dictionary candidates only.
    Each term then normalizes independently. The loop stops once no weight
    moves by ``eps`` or more, or after ``max_iters`` steps. Returns the
    per-term ``(dict_weights, formation_weights)`` and the step count.
    """

    def mi(a, b):
        pair = cooc.pair_count(a, b)
        if pair == 0:
            return 0.0
        ua = cooc.unigram_window_count[a]
        ub = cooc.unigram_window_count[b]
        # Same operand order as the library, so results compare with ==.
        return max(0.0, math.log(pair * cooc.total_windows / (ua * ub)))

    weighted = []
    for cs in sets:
        size = len(cs.dict_candidates) + len(cs.formations)
        weighted.append(
            ([1.0 / size] * len(cs.dict_candidates), [1.0 / size] * len(cs.formations))
        )
    iterations = 0
    while iterations < max_iters:
        iterations += 1
        nxt = []
        for i, cs in enumerate(sets):
            dict_scores = []
            for a, cand in enumerate(cs.dict_candidates):
                score = weighted[i][0][a]
                for ip, other in enumerate(sets):
                    if ip == i:
                        continue
                    for b, cand2 in enumerate(other.dict_candidates):
                        score += mi(cand, cand2) * weighted[ip][0][b]
                    for b, form in enumerate(other.formations):
                        score += mi(cand, form.surface) * weighted[ip][1][b]
                dict_scores.append(score)
            form_scores = []
            for a, form in enumerate(cs.formations):
                score = weighted[i][1][a]
                for ip, other in enumerate(sets):
                    if ip == i:
                        continue
                    for b, cand2 in enumerate(other.dict_candidates):
                        score += mi(form.surface, cand2) * weighted[ip][0][b]
                form_scores.append(score)
            total = sum(dict_scores) + sum(form_scores)
            nxt.append(
                ([s / total for s in dict_scores], [s / total for s in form_scores])
            )
        delta = 0.0
        for (old_d, old_f), (new_d, new_f) in zip(weighted, nxt):
            for old, new in zip(old_d + old_f, new_d + new_f):
                delta = max(delta, abs(new - old))
        weighted = nxt
        if delta < eps:
            break
    return weighted, iterations

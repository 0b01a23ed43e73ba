"""Correctness checks made apart from the program under test.

Everything here works from the generator's ground truth (each document's
token list, the planted rules and variants) or from definitions: window
arithmetic, a brute-force Dirichlet scorer, average precision. Nothing is
compared against a stored copy of the program's output.
"""

from __future__ import annotations

import math
import random
from collections import Counter

SCORE_TOL = 1e-9


class Truth:
    """Ground-truth token statistics of one generated collection."""

    def __init__(self, truth: dict, tokens: dict[str, list[str]]) -> None:
        self.raw = truth
        self.tokens = tokens
        self.tf = {doc: Counter(toks) for doc, toks in self.tokens.items()}
        self.cf: Counter[str] = Counter()
        for counts in self.tf.values():
            self.cf.update(counts)
        self.total = sum(len(toks) for toks in self.tokens.values())
        self.docs_of: dict[str, set[str]] = {}
        for doc, counts in self.tf.items():
            for term in counts:
                self.docs_of.setdefault(term, set()).add(doc)

    def planted_pairs(self) -> list[tuple[str, str, tuple]]:
        """(stem, variant, insert actions) for every planted pair in the vocabulary."""
        rules = [tuple(tuple(a) for a in actions) for actions in self.raw["planted_rules"]]
        out = []
        for stem, variants in sorted(self.raw["variants"].items()):
            if stem not in self.cf:
                continue
            for variant, actions in zip(variants, rules):
                if variant in self.cf:
                    out.append((stem, variant, actions))
        return out


# --- index and co-occurrence -------------------------------------------------

def check_index(index, truth: Truth, rng: random.Random) -> list[str]:
    errors = []
    expected = {doc: len(toks) for doc, toks in truth.tokens.items()}
    if dict(index.doc_len) != expected:
        errors.append("document lengths differ from the generated token lists")
    if set(index.postings) != set(truth.cf):
        errors.append("index vocabulary differs from the generated vocabulary")
    for doc in rng.sample(sorted(truth.tokens), 50):
        for term, count in truth.tf[doc].items():
            if index.tf(term, doc) != count:
                errors.append(f"tf({term!r}, {doc}) = {index.tf(term, doc)}, expected {count}")
    for term in rng.sample(sorted(truth.cf), 100):
        if index.df(term) != len(truth.docs_of[term]) or index.cf(term) != truth.cf[term]:
            errors.append(f"df/cf of {term!r} differ from the token lists")
    return errors


def _windows(tokens: list[str], w: int):
    if len(tokens) <= w:
        yield set(tokens)
        return
    for start in range(len(tokens) - w + 1):
        yield set(tokens[start:start + w])


def window_count(truth: Truth, terms: tuple[str, ...], w: int) -> int:
    """Windows holding every one of ``terms``, by sliding over the token lists."""
    docs = set.intersection(*(truth.docs_of.get(t, set()) for t in terms))
    return sum(1 for doc in docs for window in _windows(truth.tokens[doc], w)
               if all(t in window for t in terms))


def check_cooccurrence(table, truth: Truth, rng: random.Random) -> list[str]:
    errors = []
    w = table.window_size
    expected_windows = sum(max(1, len(toks) - w + 1) for toks in truth.tokens.values() if toks)
    if table.total_windows != expected_windows:
        errors.append(f"total windows {table.total_windows}, expected {expected_windows}")
    docs = sorted(truth.tokens)
    pairs = set()
    while len(pairs) < 60:  # pairs that share a window, and arbitrary pairs
        toks = truth.tokens[rng.choice(docs)]
        i = rng.randrange(len(toks))
        j = rng.randrange(max(0, i - w + 1), min(len(toks), i + w))
        if toks[i] != toks[j]:
            pairs.add(tuple(sorted((toks[i], toks[j]))))
    vocab = sorted(truth.cf)
    while len(pairs) < 100:
        a, b = rng.sample(vocab, 2)
        pairs.add(tuple(sorted((a, b))))
    for a, b in sorted(pairs):
        expected = window_count(truth, (a, b), w)
        if table.pair_count(a, b) != expected or table.pair_count(b, a) != expected:
            errors.append(f"pair ({a}, {b}) counted {table.pair_count(a, b)}, expected {expected}")
    for term in rng.sample(vocab, 50):
        expected = window_count(truth, (term,), w)
        if table.unigram_window_count[term] != expected:
            errors.append(f"unigram {term!r} counted {table.unigram_window_count[term]}, "
                          f"expected {expected}")
    return errors


# --- rules ---------------------------------------------------------------------

def check_rules(table, truth: Truth, rules_mod, morphgen_mod, rng: random.Random) -> list[str]:
    """Planted rules rank at the top; extract-then-apply round-trips on planted pairs."""
    errors = []
    planted = [tuple(tuple(a) for a in actions) for actions in truth.raw["planted_rules"]]
    pairs = truth.planted_pairs()
    expected = Counter(actions for _, _, actions in pairs)
    ranked = table.ranked()
    # Each planted insertion rule comes with its deletion inverse at the same count.
    top = {tuple(tuple(a) for a in rule.actions): count
           for rule, count, _ in ranked[:2 * len(planted)]}
    for actions in planted:
        if actions not in top:
            errors.append(f"planted rule {actions} is not among the top {2 * len(planted)}")
        elif top[actions] < expected[actions]:
            errors.append(f"planted rule {actions} counted {top[actions]}, "
                          f"at least {expected[actions]} expected")
    for stem, variant, actions in rng.sample(pairs, min(60, len(pairs))):
        rule = rules_mod.extract_rule(stem, variant)
        if tuple(tuple(a) for a in rule.actions) != actions:
            errors.append(f"extract_rule({stem}, {variant}) = {rule}, expected {actions}")
        elif variant not in morphgen_mod.apply_rule(stem, rule):
            errors.append(f"apply_rule({stem}, {rule}) does not give back {variant}")
    return errors


# --- retrieval -------------------------------------------------------------------

def dirichlet_scores(dist: dict[str, float], truth: Truth, mu: float) -> dict[str, float]:
    """score(d) = sum_t p(t|q) log((tf(t,d) + mu p(t|C)) / (|d| + mu)), term by term."""
    scores = {}
    for doc, toks in truth.tokens.items():
        tf = truth.tf[doc]
        score = 0.0
        for term, weight in dist.items():
            if weight <= 0.0 or truth.cf[term] == 0:
                continue
            p_c = truth.cf[term] / truth.total
            score += weight * math.log((tf[term] + mu * p_c) / (len(toks) + mu))
        scores[doc] = score
    return scores


def check_ranking(ranking, dist, truth: Truth, mu: float, top_k: int) -> list[str]:
    """The ranking holds the brute-force top ``top_k``, in order, with equal scores."""
    expected = dirichlet_scores(dist, truth, mu)
    if len(ranking) != min(top_k, len(expected)):
        return [f"ranking has {len(ranking)} entries, expected {min(top_k, len(expected))}"]
    errors = []
    for doc, score in ranking:
        if not math.isclose(score, expected[doc], rel_tol=SCORE_TOL, abs_tol=SCORE_TOL):
            errors.append(f"score of {doc} is {score}, brute force gives {expected[doc]}")
            break
    for (_, s1), (_, s2) in zip(ranking, ranking[1:]):
        if s2 > s1:
            errors.append("ranking is not in descending score order")
            break
    returned = {doc for doc, _ in ranking}
    floor = min(score for _, score in ranking)
    best_left = max((s for d, s in expected.items() if d not in returned), default=-math.inf)
    if best_left > floor + SCORE_TOL * max(1.0, abs(floor)):
        errors.append("a document outside the ranking outscores one inside it")
    return errors


def average_precision(ranked_ids: list[str], relevant: set[str]) -> float:
    hits, total = 0, 0.0
    for rank, doc in enumerate(ranked_ids, 1):
        if doc in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def weights_sum_to_one(dist: dict[str, float]) -> bool:
    return abs(math.fsum(dist.values()) - 1.0) <= 1e-9

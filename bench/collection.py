"""Seeded synthetic cross-language collection with planted morphology.

This scales the planted-morphology idea of ``tests/synthcorpus.py`` up to a
benchmark-sized collection:

* Stems are random strings over a consonant alphabet; affixes are two-letter
  strings over a disjoint vowel alphabet, and no two affixes share a letter.
  So every stem-variant pair sits at indel distance 2, every pair of variants
  of one stem at distance 4 (outside ``k_max`` = 3), and the alignment of a
  stem onto its variant is unique. Both alphabets include precomposed (NFC)
  non-ASCII letters that the tokenizer keeps whole.
* The seven planted rules are three suffix, two prefix and two infix
  insertions, chosen per seed.
* Background documents draw tokens from a Zipf distribution over stem
  families (a stem and its variants).
* Query stems are grouped into themes. A theme's relevant documents hold
  only inflected variants of its stems (never the stems themselves). Each
  query stem also has a cluster document (its variants around the stem and
  the next theme stem, so formations pass the context filter, padded with
  background text), and each
  theme has a joint document holding its stems together. A dictionary pairs
  every stem with a decoy, so dictionary-only queries find cluster, joint
  and decoy documents but no relevant one.
* A topic is a two- to four-stem subset of one theme, written in source
  terms; all topics of a theme share the theme's relevant documents.

The program under test receives only the written files (corpus, dictionary,
topics, qrels). ``truth.json`` and ``tokens.json`` keep what the checks need
as ground truth: the planted rules, each stem's variants and each
document's token list.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STEM_ALPHABET = "bcdfghjklmnprstvwzšžčñ"
AFFIX_ALPHABET = "aeiouyäöüõåæøë"
SUFFIXES, PREFIXES, INFIXES = 3, 2, 2
TOPIC_SIZES = (2, 3, 4)
CLUSTERS_PER_STEM = 2


@dataclass(frozen=True)
class Scale:
    """Sizes of one generated collection."""

    background_stems: int
    background_docs: int
    background_len: int  # mean tokens per background document
    themes: int
    stems_per_theme: int
    relevant_per_theme: int
    zipf_s: float = 1.0


# The build workload indexes and mines its collection once per operation,
# so it is small; the query workloads load theirs once per set-up.
SCALES = {
    "build": Scale(background_stems=150, background_docs=80, background_len=50,
                   themes=8, stems_per_theme=5, relevant_per_theme=3),
    # 60 themes of 7 stems give 5,460 distinct topics, more than a run uses.
    "query": Scale(background_stems=700, background_docs=1000, background_len=40,
                   themes=60, stems_per_theme=7, relevant_per_theme=4),
    # About the size of the ROADMAP's baseline: 5,000 documents, ~150 tokens
    # each. Only for reference runs (``run.py --scale baseline``).
    "baseline": Scale(background_stems=1400, background_docs=3440, background_len=150,
                      themes=60, stems_per_theme=7, relevant_per_theme=4),
}


def planted_rules(rng: random.Random) -> list[tuple[str, str]]:
    """(kind, two letters) for each planted affix; no letter is reused."""
    letters = list(AFFIX_ALPHABET)
    rng.shuffle(letters)
    kinds = ["suffix"] * SUFFIXES + ["prefix"] * PREFIXES + ["infix"] * INFIXES
    return [(kind, letters[2 * i] + letters[2 * i + 1]) for i, kind in enumerate(kinds)]


def rule_actions(kind: str, pair: str) -> list[list[str]]:
    """The canonical insert actions (op, position, char) a planted rule mines to."""
    x, y = pair
    if kind == "suffix":
        return [["i", "e", x], ["i", "e", y]]
    if kind == "prefix":
        return [["i", "b", x], ["i", "m", y]]
    return [["i", "m", x], ["i", "m", y]]


def inflect(stem: str, kind: str, pair: str, rng: random.Random) -> str:
    if kind == "suffix":
        return stem + pair
    if kind == "prefix":
        return pair + stem
    point = rng.randrange(1, len(stem))
    return stem[:point] + pair + stem[point:]


def _stems(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        word = "".join(rng.choice(STEM_ALPHABET) for _ in range(rng.randint(6, 9)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _source_term(i: int) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return "src" + letters[i // 676 % 26] + letters[i // 26 % 26] + letters[i % 26]


def generate(seed: int, scale: Scale) -> dict:
    """Build the collection in memory: documents, dictionary, topics, truth."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    rules = planted_rules(rng)
    taken: set[str] = set()

    n_query = scale.themes * scale.stems_per_theme
    query_stems = _stems(rng, n_query, taken)
    decoys = _stems(rng, n_query, taken)
    background = _stems(rng, scale.background_stems, taken)

    variants = {s: [inflect(s, kind, pair, rng) for kind, pair in rules]
                for s in query_stems + background}

    # Background vocabulary: each family is a stem plus its variants; the
    # families follow a Zipf law and forms within a family are uniform.
    forms = [f for s in background for f in [s] + variants[s]]
    family_w = 1.0 / np.arange(1, len(background) + 1) ** scale.zipf_s
    nprng.shuffle(family_w)
    per_family = len(rules) + 1
    weights = np.repeat(family_w / per_family, per_family)
    weights /= weights.sum()

    def background_tokens(n: int) -> list[str]:
        return [forms[i] for i in nprng.choice(len(forms), size=n, p=weights)]

    bodies: list[tuple[str, list[str]]] = []
    for i in range(scale.background_docs):
        n = max(5, int(nprng.poisson(scale.background_len)))
        bodies.append((f"bg{i}", background_tokens(n)))

    themes = [query_stems[t * scale.stems_per_theme:(t + 1) * scale.stems_per_theme]
              for t in range(scale.themes)]
    relevant_labels: dict[int, list[str]] = {}
    for t, stems in enumerate(themes):
        for r in range(scale.relevant_per_theme):
            tokens = [v for s in stems for v in rng.sample(variants[s], 2)]
            tokens += background_tokens(len(tokens))
            rng.shuffle(tokens)
            label = f"rel{t}.{r}"
            relevant_labels.setdefault(t, []).append(label)
            bodies.append((label, tokens))
        for j, s in enumerate(stems):
            partner = stems[(j + 1) % len(stems)]
            v = variants[s]
            for c in range(CLUSTERS_PER_STEM):
                bodies.append((f"cluster{t}.{j}.{c}", v[:3] + [s] + v[3:] + [partner]
                               + background_tokens(scale.background_len)))
        bodies.append((f"joint{t}", list(stems) + background_tokens(4)))
    for i, d in enumerate(decoys):
        bodies.append((f"decoy{i}", [d] + background_tokens(9)))

    rng.shuffle(bodies)
    docs = [(f"D{i:05d}", tokens) for i, (_, tokens) in enumerate(bodies)]
    label_to_id = {label: doc_id for (label, _), (doc_id, _) in zip(bodies, docs)}

    source = {s: _source_term(i) for i, s in enumerate(query_stems)}
    dictionary = {source[s]: [decoys[i], s] for i, s in enumerate(query_stems)}

    topics, qrels, topic_stems = [], {}, {}
    for t, stems in enumerate(themes):
        rel_ids = sorted(label_to_id[label] for label in relevant_labels[t])
        for size in TOPIC_SIZES:
            for combo in itertools.combinations(stems, size):
                qid = f"T{t}.{len(topic_stems)}"
                topics.append((qid, " ".join(source[s] for s in combo)))
                topic_stems[qid] = list(combo)
                qrels[qid] = rel_ids
    order = list(range(len(topics)))
    rng.shuffle(order)
    topics = [topics[i] for i in order]

    return {
        "docs": docs,
        "dictionary": dictionary,
        "topics": topics,
        "qrels": qrels,
        "truth": {
            "seed": seed,
            "planted_rules": [rule_actions(kind, pair) for kind, pair in rules],
            "planted_affixes": [[kind, pair] for kind, pair in rules],
            "variants": {s: variants[s] for s in query_stems + background},
            "query_stems": query_stems,
            "topic_stems": topic_stems,
        },
        "tokens": {doc_id: tokens for doc_id, tokens in docs},
    }


def write(collection: dict, directory: Path) -> dict[str, Path]:
    """Write the program's input files and the checks' ground truth."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / name for name in
             ("corpus.tsv", "dictionary.tsv", "topics.tsv", "qrels.txt", "truth.json",
              "tokens.json")}
    with open(paths["corpus.tsv"], "w", encoding="utf-8") as handle:
        for doc_id, tokens in collection["docs"]:
            handle.write(f"{doc_id}\t{' '.join(tokens)}\n")
    with open(paths["dictionary.tsv"], "w", encoding="utf-8") as handle:
        for src, cands in collection["dictionary"].items():
            handle.write(f"{src}\t{','.join(cands)}\n")
    with open(paths["topics.tsv"], "w", encoding="utf-8") as handle:
        for qid, title in collection["topics"]:
            handle.write(f"{qid}\t{title}\n")
    with open(paths["qrels.txt"], "w", encoding="utf-8") as handle:
        for qid, _ in collection["topics"]:
            for doc_id in collection["qrels"][qid]:
                handle.write(f"{qid} 0 {doc_id} 1\n")
    for name in ("truth", "tokens"):
        paths[f"{name}.json"].write_text(
            json.dumps(collection[name], ensure_ascii=False), encoding="utf-8")
    return paths

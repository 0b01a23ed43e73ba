"""Deterministic synthetic cross-language collection with planted morphology.

Fifty base words over one letter set carry variants produced by ten known
two-action rules whose characters come from a disjoint letter set, so every
base-variant pair sits at indel distance 2 while everything else stays far
apart. Twenty two-term queries translate, through a dictionary that pairs
each base with a decoy, into bases whose relevant documents contain only
variant forms. Bridge documents make each variant co-occur with the partner
base, giving the context filter and the association models something real
to measure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from affixgen.corpus import Document
from affixgen.disambig import BilingualDictionary
from affixgen.retrieval import Qrels
from affixgen.rules import (
    BEGIN,
    END,
    INSERT,
    MIDDLE,
    Action,
    TransformationRule,
)

from oracles import indel_distance

BASE_ALPHABET = "bcdfgj"
MIN_SEPARATION = 8

SUFFIX_RULES = ["es", "an", "it", "um"]
PREFIX_RULES = ["ho", "kl", "pq"]
MIDDLE_RULES = ["rv", "wx", "yz"]

NUM_BASES = 50
NUM_QUERIES = 20
NUM_DECOYS = NUM_BASES
NUM_PURE_FILLERS = 60
NUM_DOCS = 500


def planted_rule_set() -> list[TransformationRule]:
    """The ten rules, written as the canonical action tuples they mine to."""
    rules = []
    for x, y in SUFFIX_RULES:
        rules.append(TransformationRule((Action(INSERT, END, x), Action(INSERT, END, y))))
    for x, y in PREFIX_RULES:
        rules.append(
            TransformationRule((Action(INSERT, BEGIN, x), Action(INSERT, MIDDLE, y)))
        )
    for x, y in MIDDLE_RULES:
        rules.append(
            TransformationRule((Action(INSERT, MIDDLE, x), Action(INSERT, MIDDLE, y)))
        )
    return rules


def _apply_affix(base: str, kind: str, pair: str, rng: random.Random) -> str:
    if kind == "suffix":
        return base + pair
    if kind == "prefix":
        return pair + base
    point = rng.randrange(1, len(base))
    return base[:point] + pair + base[point:]


def _well_separated_words(rng: random.Random, count: int, existing: list[str]) -> list[str]:
    """Sample words pairwise far from each other and from ``existing``."""
    words: list[str] = []
    pool = list(existing)
    while len(words) < count:
        length = rng.randint(11, 13)
        word = "".join(rng.choice(BASE_ALPHABET) for _ in range(length))
        if any(indel_distance(word, other) <= MIN_SEPARATION - 1 for other in pool):
            continue
        words.append(word)
        pool.append(word)
    return words


@dataclass
class SyntheticWorld:
    documents: list[Document]
    dictionary: BilingualDictionary
    topics: list[tuple[str, str]]
    qrels: Qrels
    planted_rules: list[TransformationRule]
    planted_variants: dict[str, set[str]]
    bases: list[str]
    variants: dict[str, list[str]]


def build_world(seed: int = 7) -> SyntheticWorld:
    rng = random.Random(seed)
    bases = _well_separated_words(rng, NUM_BASES, [])
    fillers = _well_separated_words(rng, NUM_DECOYS + NUM_PURE_FILLERS, bases)
    decoys = fillers[:NUM_DECOYS]
    pure = fillers[NUM_DECOYS:]

    affixes = (
        [("suffix", p) for p in SUFFIX_RULES]
        + [("prefix", p) for p in PREFIX_RULES]
        + [("middle", p) for p in MIDDLE_RULES]
    )
    variants = {
        base: [_apply_affix(base, kind, pair, rng) for kind, pair in affixes]
        for base in bases
    }

    # Two-letter word-only source terms; digits would not survive tokenization.
    def source_term(i: int) -> str:
        return "src" + "abcdefghijklmnopqrstuvwxyz"[i // 26] + \
            "abcdefghijklmnopqrstuvwxyz"[i % 26]

    entries = {
        source_term(i): [decoys[i], bases[i]] for i in range(NUM_BASES)
    }
    dictionary = BilingualDictionary(entries)

    topics = []
    qrels_map: dict[str, set[str]] = {}
    planted_variants: dict[str, set[str]] = {}
    bodies: list[tuple[str, list[str]]] = []

    for q in range(NUM_QUERIES):
        qid = f"q{q:02d}"
        i1, i2 = 2 * q, 2 * q + 1
        b1, b2 = bases[i1], bases[i2]
        topics.append((qid, f"{source_term(i1)} {source_term(i2)}"))
        planted_variants[qid] = set(variants[b1]) | set(variants[b2])

        v1, v2 = variants[b1], variants[b2]
        for k in range(5):
            body = [v1[(k * 5 + off) % 10] for off in range(5)]
            body += [v2[(k * 5 + off) % 10] for off in range(5)]
            bodies.append((f"rel:{qid}:{k}", body))

        # Bridges put the partner base inside every variant's window.
        bodies.append((f"bridge:{qid}:1", v1[:5] + [b2] + v1[5:]))
        bodies.append((f"bridge:{qid}:2", v2[:5] + [b1] + v2[5:]))
        bodies.append(
            (f"joint:{qid}", [b1, b2] + rng.sample(pure, 4))
        )

    # Bases not used by any query still carry their variants in-collection.
    for base in bases[2 * NUM_QUERIES :]:
        v = variants[base]
        bodies.append((f"cluster:{base}", v[:5] + [base] + v[5:]))

    for i, decoy in enumerate(decoys):
        bodies.append((f"decoy:{i}", [decoy] + rng.sample(pure, 9)))

    while len(bodies) < NUM_DOCS:
        k = rng.randint(6, 12)
        bodies.append((f"filler:{len(bodies)}", rng.sample(pure, k)))

    assert len(bodies) == NUM_DOCS
    rng.shuffle(bodies)
    documents = []
    for position, (label, tokens) in enumerate(bodies):
        doc_id = f"d{position:03d}"
        documents.append(Document(doc_id, " ".join(tokens)))
        if label.startswith("rel:"):
            qid = label.split(":")[1]
            qrels_map.setdefault(qid, set()).add(doc_id)

    return SyntheticWorld(
        documents=documents,
        dictionary=dictionary,
        topics=topics,
        qrels=Qrels(qrels_map),
        planted_rules=planted_rule_set(),
        planted_variants=planted_variants,
        bases=bases,
        variants=variants,
    )


def world_files(world: SyntheticWorld, directory) -> dict[str, str]:
    """Write the world as CLI-consumable files, returning their paths."""
    paths = {}
    corpus = directory / "corpus.tsv"
    with open(corpus, "w", encoding="utf-8") as handle:
        for doc in world.documents:
            handle.write(f"{doc.doc_id}\t{doc.text}\n")
    paths["corpus"] = str(corpus)

    dictionary = directory / "dictionary.tsv"
    with open(dictionary, "w", encoding="utf-8") as handle:
        for source, cands in world.dictionary.entries_by_source.items():
            handle.write(f"{source}\t{','.join(cands)}\n")
    paths["dictionary"] = str(dictionary)

    topics = directory / "topics.tsv"
    with open(topics, "w", encoding="utf-8") as handle:
        for qid, title in world.topics:
            handle.write(f"{qid}\t{title}\n")
    paths["topics"] = str(topics)

    qrels = directory / "qrels.txt"
    with open(qrels, "w", encoding="utf-8") as handle:
        for qid in sorted(world.qrels.relevant):
            for doc_id in sorted(world.qrels.relevant[qid]):
                handle.write(f"{qid} 0 {doc_id} 1\n")
    paths["qrels"] = str(qrels)
    return paths

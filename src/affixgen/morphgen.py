"""Morphological formation generation and noise control.

Rules mined by the rules module are reapplied to produce candidate related
forms for a word. Generation is vocabulary constrained: rather than expanding
the free-form string set a rule can produce, candidate surfaces are taken
from the collection vocabulary and kept when some rule of sufficient
probability maps the word onto them. Candidates then pass length and
co-occurrence filters that weed out coincidental near neighbours.

A ``FormationGenerator`` searches the vocabulary once per word and POS tag
and keeps the word's neighbour list (surface, distance, rule, probability)
for as long as the generator lives, without bound; the noise thresholds are
applied each time the list is read, so generators that differ only in them
share one store.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import textfiles
from .config import ExperimentConfig, check_min_len
from .corpus import UNKNOWN_TAG, CooccurrenceTable
from .rules import (
    BEGIN,
    END,
    INSERT,
    Action,
    CharSignatures,
    MedConfig,
    RuleTable,
    TransformationRule,
    format_actions,
)


def apply_rule(w: str, rule: TransformationRule) -> set[str]:
    """All strings reachable by executing the rule's actions left to right.

    Begin actions bind to position 0 and end actions to the final position.
    A middle insertion enumerates every strictly interior insertion point and
    a middle deletion every strictly interior occurrence of its character, so
    the result is a set. Deletions whose character is absent at the required
    position contribute nothing. An empty action list returns ``{w}``.
    """
    current = {w}
    for action in rule.actions:
        nxt: set[str] = set()
        for s in current:
            nxt.update(_apply_action(s, action))
        current = nxt
        if not current:
            break
    return current


def _apply_action(s: str, action: Action) -> set[str]:
    op, pos, ch = action
    if op == INSERT:
        if pos == BEGIN:
            return {ch + s}
        if pos == END:
            return {s + ch}
        return {s[:i] + ch + s[i:] for i in range(1, len(s))}
    if pos == BEGIN:
        return {s[1:]} if s and s[0] == ch else set()
    if pos == END:
        return {s[:-1]} if s and s[-1] == ch else set()
    return {s[:i] + s[i + 1 :] for i in range(1, len(s) - 1) if s[i] == ch}


@dataclass(frozen=True)
class FormationCandidate:
    surface: str
    source: str
    rule: TransformationRule
    prob: float


# (surface, indel distance, rule, rule probability)
_Neighbour = tuple[str, int, TransformationRule, float]


@dataclass(frozen=True)
class NoiseFilterConfig:
    """Thresholds that separate morphological relatives from lookalikes.

    ``min_len`` maps the edit distance of a formation to the minimum surface
    length it must have; cheap transformations of short words are the main
    source of coincidental matches. Each field is the config key of its
    name, with its default (``min_len`` as ``min_len_map`` reads it).
    """

    rule_prob_threshold: float = ExperimentConfig.rule_prob_threshold
    min_len: dict[int, int] = field(default_factory=lambda: ExperimentConfig().min_len_map())
    context_window: int = ExperimentConfig.context_window
    require_context: bool = ExperimentConfig.require_context

    def __post_init__(self) -> None:
        if self.rule_prob_threshold < 0:
            raise ValueError("rule_prob_threshold must be >= 0")
        for k, length in self.min_len.items():
            if k < 1 or length < 0:
                raise ValueError(f"invalid min_len entry {k}: {length}")


class FormationGenerator:
    """Reusable generator over a fixed vocabulary and rule table.

    The vocabulary's ``CharSignatures`` is built once. The first
    ``generate`` call for a ``(word, POS tag)`` runs its ``neighbours``
    search, the one rule mining runs: one merge of the word's per-character
    inverted lists plus one LCS alignment and traceback per survivor.
    The tag is ``generate``'s ``pos_tag`` when given, else ``tagger(word)``;
    without a tagger every word is ``UNKNOWN_TAG``. The call stores the
    word's neighbour list, ``(surface, distance, rule, probability)`` for
    every vocabulary word within ``k_max``, sorted by descending probability
    then surface, with one rule object per distinct rule. The store is
    unbounded: it grows with the distinct ``(word, tag)`` pairs the
    generator sees. Every call reads the list through ``min_len`` and
    ``rule_prob_threshold``, which is exact because tightening either only
    drops formations; ``with_noise`` gives a generator under other
    thresholds that shares the store.
    """

    def __init__(
        self,
        vocab: Iterable[str],
        rules: RuleTable,
        tagger: Callable[[str], str] | None = None,
        cfg: NoiseFilterConfig | None = None,
        med: MedConfig | None = None,
    ) -> None:
        self.rules = rules
        self.cfg = cfg or NoiseFilterConfig()
        self.med = med or MedConfig(k_max=rules.k_max or ExperimentConfig.k_max)
        self.tagger = tagger or (lambda term: UNKNOWN_TAG)
        check_min_len(self.cfg.min_len, self.med.k_max)
        self.words = sorted(set(vocab))
        self._signatures = CharSignatures(self.words)
        self._neighbours: dict[tuple[str, str], list[_Neighbour]] = {}
        self._interned: dict[TransformationRule, TransformationRule] = {}

    def with_noise(self, cfg: NoiseFilterConfig) -> FormationGenerator:
        """This generator under ``cfg``, sharing its search and neighbour lists."""
        check_min_len(cfg.min_len, self.med.k_max)
        variant = copy.copy(self)
        variant.cfg = cfg
        return variant

    def generate(self, w: str, pos_tag: str | None = None) -> list[FormationCandidate]:
        """Likelihood- and length-filtered formations of ``w`` from the vocabulary."""
        if not self.words:
            return []
        tag = pos_tag if pos_tag is not None else self.tagger(w)
        neighbours = self._neighbours.get((w, tag))
        if neighbours is None:
            neighbours = self._neighbours[w, tag] = self._search(w, tag)
        min_len = self.cfg.min_len
        threshold = self.cfg.rule_prob_threshold
        return [FormationCandidate(surface, w, rule, prob)
                for surface, d, rule, prob in neighbours
                if len(surface) >= min_len[d] and prob >= threshold]

    def _search(self, w: str, tag: str) -> list[_Neighbour]:
        """Every vocabulary word within ``k_max`` of ``w``, with its rule."""
        out = []
        for surface, d, actions, _ in self._signatures.neighbours(w, self.med.k_max):
            rule = TransformationRule(actions, tag)
            rule = self._interned.setdefault(rule, rule)
            out.append((surface, d, rule, self.rules.prob(rule)))
        out.sort(key=lambda n: (-n[3], n[0]))
        return out


def context_filter(
    candidates: Sequence[FormationCandidate],
    anchors: Iterable[str],
    cooc: CooccurrenceTable,
) -> list[FormationCandidate]:
    """Keep formations that co-occur with at least one anchor term.

    Anchors are typically the dictionary translations of the whole query.
    Candidate order is preserved. All pairs come from one ``pair_counts``
    call over the candidates' surfaces and the anchors.
    """
    surfaces = [c.surface for c in candidates]
    counts = cooc.pair_counts(surfaces + list(anchors))
    linked = counts[: len(surfaces), len(surfaces) :].any(axis=1)
    return [c for c, keep in zip(candidates, linked.tolist()) if keep]


def ngram_split(term: str, n: int = ExperimentConfig.ngram_n) -> list[str]:
    """Distinct contiguous character n-grams in first-occurrence order.

    Terms shorter than ``n`` pass through unchanged.
    """
    if n < 1:
        raise ValueError(f"n-gram size must be >= 1, got {n}")
    if len(term) <= n:
        return [term]
    grams = [term[i : i + n] for i in range(len(term) - n + 1)]
    return list(dict.fromkeys(grams))


def load_stem_table(path: str | Path) -> Callable[[str], str]:
    """Build a stemmer from ``term<TAB>stem`` lines, identity for unknowns."""
    table: dict[str, str] = {}
    for lineno, line in textfiles.lines(path):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ValueError(f"{path}: malformed stem line {lineno}: {line!r}")
        table[fields[0]] = fields[1]
    return lambda term: table.get(term, term)


def save_formations(
    candidates: Iterable[FormationCandidate], path: str | Path
) -> None:
    """Dump formations as TSV: source, surface, serialized rule, probability."""
    with textfiles.replacing(path) as handle:
        for c in candidates:
            rule_text = f"{format_actions(c.rule.actions)}@{c.rule.pos_tag}"
            handle.write(f"{c.source}\t{c.surface}\t{rule_text}\t{c.prob!r}\n")

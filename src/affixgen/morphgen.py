"""Morphological formation generation and noise control.

Rules mined by the rules module are reapplied to produce candidate related
forms for a word. Generation is vocabulary constrained: rather than expanding
the free-form string set a rule can produce, candidate surfaces are taken
from the collection vocabulary and kept when some rule of sufficient
probability maps the word onto them. Candidates then pass length and
co-occurrence filters that weed out coincidental near neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .corpus import CooccurrenceTable, PosLexicon, as_tagger
from .rules import (
    BEGIN,
    END,
    INSERT,
    Action,
    CharSignatures,
    MedConfig,
    RuleTable,
    TransformationRule,
    _band,
    _traceback,
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


@dataclass(frozen=True)
class NoiseFilterConfig:
    """Thresholds that separate morphological relatives from lookalikes.

    ``min_len`` maps the edit distance of a formation to the minimum surface
    length it must have; cheap transformations of short words are the main
    source of coincidental matches.
    """

    rule_prob_threshold: float = 1e-4
    min_len: dict[int, int] = field(
        default_factory=lambda: {1: 4, 2: 5, 3: 6}
    )
    context_window: int = 10
    require_context: bool = True

    def __post_init__(self) -> None:
        if self.rule_prob_threshold < 0:
            raise ValueError("rule_prob_threshold must be >= 0")
        for k, length in self.min_len.items():
            if k < 1 or length < 0:
                raise ValueError(f"invalid min_len entry {k}: {length}")


class FormationGenerator:
    """Reusable generator over a fixed vocabulary and rule table.

    The vocabulary's character-count prefilter, the one rule mining uses, is
    built once. Per-word generation then costs one merge of the word's
    per-character inverted lists plus one banded alignment per survivor,
    which gives both the unit-cost distance the length floor reads and the
    rule; the rule is traced only for candidates that clear the floor.
    """

    def __init__(
        self,
        vocab: Iterable[str],
        rules: RuleTable,
        pos: PosLexicon | Callable[[str], str] | None = None,
        cfg: NoiseFilterConfig | None = None,
        med: MedConfig | None = None,
    ) -> None:
        self.rules = rules
        self.cfg = cfg or NoiseFilterConfig()
        self.med = med or MedConfig(k_max=rules.k_max or 3)
        self.tagger = as_tagger(pos)
        for k in range(1, self.med.k_max + 1):
            if k not in self.cfg.min_len:
                raise ValueError(f"min_len missing an entry for distance {k}")
        self.words = sorted(set(vocab))
        self._signatures = CharSignatures(self.words)

    def generate(self, w: str, pos_tag: str | None = None) -> list[FormationCandidate]:
        """Likelihood- and length-filtered formations of ``w`` from the vocabulary."""
        if not self.words:
            return []
        tag = pos_tag if pos_tag is not None else self.tagger(w)
        k = self.med.k_max
        out = []
        for row in self._signatures.within(w, k):
            surface = self.words[int(row)]
            if surface == w:
                continue
            band = _band(w, surface, k)
            if band is None:
                continue
            d, rows = band
            if len(surface) < self.cfg.min_len[d]:
                continue
            rule = TransformationRule(_traceback(w, surface, rows, k), tag)
            prob = self.rules.prob(rule)
            if prob < self.cfg.rule_prob_threshold:
                continue
            out.append(FormationCandidate(surface, w, rule, prob))
        out.sort(key=lambda c: (-c.prob, c.surface))
        return out


def context_filter(
    candidates: Sequence[FormationCandidate],
    anchors: Iterable[str],
    cooc: CooccurrenceTable,
) -> list[FormationCandidate]:
    """Keep formations that co-occur with at least one anchor term.

    Anchors are typically the dictionary translations of the whole query.
    Candidate order is preserved.
    """
    anchor_list = list(anchors)
    return [
        c
        for c in candidates
        if any(cooc.pair_count(c.surface, a) > 0 for a in anchor_list)
    ]


def ngram_split(term: str, n: int = 5) -> list[str]:
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
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0] or not fields[1]:
                raise ValueError(f"{path}: malformed stem line {lineno}: {line!r}")
            table[fields[0]] = fields[1]
    return lambda term: table.get(term, term)


def save_formations(
    candidates: Iterable[FormationCandidate], path: str | Path
) -> None:
    """Dump formations as TSV: source, surface, serialized rule, probability."""
    with open(path, "w", encoding="utf-8") as handle:
        for c in candidates:
            rule_text = f"{format_actions(c.rule.actions)}@{c.rule.pos_tag}"
            handle.write(f"{c.source}\t{c.surface}\t{rule_text}\t{c.prob!r}\n")

"""Transformation rules between morphologically related word forms.

A rule is the ordered list of single-character edit actions that turns one
word into another along a minimum-cost alignment that allows insertions and
deletions but no substitutions, together with the part-of-speech tag of the
source word. Insertions and deletions cost one each, always, so this
distance equals ``len(w) + len(w2) - 2 * lcs(w, w2)``.

One banded alignment (Ukkonen's cutoff: only cells within ``k`` of the
diagonal are filled) gives both the distance and, by tracing back over its
rows, the rule. One character-count prefilter (``CharSignatures``) narrows
the vocabulary to the words that can lie within ``k`` before any alignment
runs; it reads per-character inverted lists, so a query costs the length
of its characters' lists rather than vocabulary size times alphabet size.
Rule mining and formation generation share both.

Each action records its operation, the character involved, and a coarse
position. Positions are assigned while walking the alignment left to right:
an action is tagged ``begin`` when it touches index 0 of the partially
transformed string, ``end`` when it touches the final position, and
``middle`` otherwise. Anchoring positions to the partially transformed
string (rather than to static source offsets) is what makes a rule
reapplicable: executing the actions in order on the source word always
reproduces the target among the generated strings.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import PosLexicon, UNKNOWN_TAG, as_tagger

INSERT = "i"
DELETE = "d"
BEGIN = "b"
MIDDLE = "m"
END = "e"

_OPS = {INSERT, DELETE}
_POSITIONS = {BEGIN, MIDDLE, END}


class Action(NamedTuple):
    op: str
    pos: str
    ch: str


@dataclass(frozen=True)
class TransformationRule:
    actions: tuple[Action, ...]
    pos_tag: str = UNKNOWN_TAG

    def __str__(self) -> str:
        return f"{format_actions(self.actions)}@{self.pos_tag}"


@dataclass(frozen=True)
class MedConfig:
    """Edit-distance settings: the largest distance ``k_max`` a rule may span.

    Insertions and deletions cost one each and substitutions are not
    allowed; neither is configurable.
    """

    k_max: int = 3

    def __post_init__(self) -> None:
        if self.k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {self.k_max}")


def _band(w: str, w2: str, k: int) -> tuple[int, list[list[int]]] | None:
    """Indel distance and alignment rows if the distance is at most ``k``.

    Row ``i`` holds cell ``(i, j)`` at index ``j - i + k``; only cells within
    ``k`` of the diagonal are filled, and a cell whose distance exceeds ``k``
    reads ``k + 1``. Every cell on an optimal path of cost ``d <= k`` is
    therefore exact. The scan stops as soon as a whole row exceeds ``k``.
    """
    n, m = len(w), len(w2)
    if abs(n - m) > k:
        return None
    cap = k + 1
    width = 2 * k + 1
    prev = [cap] * width
    for j in range(min(m, k) + 1):
        prev[j + k] = j
    rows = [prev]
    for i in range(1, n + 1):
        cur = [cap] * width
        wc = w[i - 1]
        lo = max(0, i - k)
        hi = min(m, i + k)
        row_min = cap
        for j in range(lo, hi + 1):
            d = j - i + k
            if j == 0:
                c = i if i < cap else cap
            else:
                c = prev[d + 1] + 1 if d + 1 < width else cap
                if d >= 1 and cur[d - 1] + 1 < c:
                    c = cur[d - 1] + 1
                if wc == w2[j - 1] and prev[d] < c:
                    c = prev[d]
                if c > cap:
                    c = cap
            cur[d] = c
            if c < row_min:
                row_min = c
        if row_min >= cap:
            return None
        rows.append(cur)
        prev = cur
    final = prev[m - n + k]
    return (final, rows) if final <= k else None


def _traceback(w: str, w2: str, rows: list[list[int]], k: int) -> tuple[Action, ...]:
    """The canonical actions turning ``w`` into ``w2``, read off ``_band`` rows.

    Walking back from the terminal cell, a match is preferred, then a
    deletion from the source, then an insertion; a deletion from the band's
    last diagonal (``j - i == k``) would leave the band and is never taken.
    Actions are emitted in left-to-right alignment order.
    """
    n = len(w)
    moves: list[str] = []
    i, j = n, len(w2)
    while i > 0 or j > 0:
        d = j - i + k
        here = rows[i][d]
        if i > 0 and j > 0 and w[i - 1] == w2[j - 1] and rows[i - 1][d] == here:
            moves.append("match")
            i -= 1
            j -= 1
        elif i > 0 and d < 2 * k and rows[i - 1][d + 1] + 1 == here:
            moves.append("delete")
            i -= 1
        else:
            moves.append("insert")
            j -= 1
    moves.reverse()

    # Forward pass: positions are judged against the evolving string
    # w2[:j] + w[i:], the state after the actions emitted so far.
    actions: list[Action] = []
    i = j = 0
    for move in moves:
        if move == "match":
            i += 1
            j += 1
        elif move == "insert":
            if i == n:
                pos = END
            elif j == 0:
                pos = BEGIN
            else:
                pos = MIDDLE
            actions.append(Action(INSERT, pos, w2[j]))
            j += 1
        else:
            if j == 0:
                pos = BEGIN
            elif i == n - 1:
                pos = END
            else:
                pos = MIDDLE
            actions.append(Action(DELETE, pos, w[i]))
            i += 1
    return tuple(actions)


def extract_rule(w: str, w2: str, pos_tag: str = UNKNOWN_TAG) -> TransformationRule:
    """Extract the canonical transformation rule turning ``w`` into ``w2``."""
    k = len(w) + len(w2)
    _, rows = _band(w, w2, k)
    return TransformationRule(_traceback(w, w2, rows, k), pos_tag)


_NO_ROWS = np.empty(0, dtype=np.intp)


class CharSignatures:
    """Inverted character-count lists of a word list, for the indel prefilter.

    The L1 distance between two words' character counts never exceeds their
    indel distance, so ``within`` keeps every word a distance search needs.
    For each character c and each j >= 1, the ascending rows holding at least
    j copies of c are kept; merging w's lists (ScanCount) gives each row's
    multiset overlap with w, and L1 = len(s) + len(w) - 2 * overlap. This is
    the q-gram count filter of Gravano et al. (VLDB 2001) with q = 1.
    """

    def __init__(self, words: Sequence[str]) -> None:
        lists: dict[tuple[str, int], list[int]] = {}
        for row, word in enumerate(words):
            seen: dict[str, int] = {}
            for c in word:
                j = seen[c] = seen.get(c, 0) + 1
                lists.setdefault((c, j), []).append(row)
        self._rows = {key: np.array(rows, dtype=np.intp) for key, rows in lists.items()}
        self._lens = np.fromiter(map(len, words), dtype=np.intp, count=len(words))

    def within(self, w: str, k: int, start: int = 0) -> np.ndarray:
        """Rows from ``start`` on whose counts lie within L1 distance ``k`` of ``w``.

        Characters of ``w`` outside the word list's alphabet count one each.
        The work is the length of w's lists plus a few passes over the rows.
        """
        rows = self._rows
        hits = [rows[c, j] for c, n in Counter(w).items()
                for j in range(1, n + 1) if (c, j) in rows]
        overlap = np.bincount(np.concatenate([_NO_ROWS, *hits]), minlength=len(self._lens))
        # L1 = len(s) + len(w) - 2 * overlap <= k
        excess = self._lens[start:] - 2 * overlap[start:]
        return np.nonzero(excess <= k - len(w))[0] + start


@dataclass
class RuleTable:
    """Mined rules with type-frequency counts and maximum-likelihood probs."""

    counts: dict[TransformationRule, int]
    probs: dict[TransformationRule, float]
    k_max: int
    total_count: int

    @classmethod
    def empty(cls, k_max: int) -> "RuleTable":
        return cls({}, {}, k_max, 0)

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, rule: TransformationRule) -> bool:
        return rule in self.counts

    def prob(self, rule: TransformationRule) -> float:
        return self.probs.get(rule, 0.0)

    def ranked(self) -> list[tuple[TransformationRule, int, float]]:
        """Rules sorted by descending count, then serialized form."""
        order = sorted(
            self.counts,
            key=lambda r: (-self.counts[r], format_actions(r.actions), r.pos_tag),
        )
        return [(r, self.counts[r], self.probs[r]) for r in order]


def score_rules(counts: dict[TransformationRule, int], k_max: int) -> RuleTable:
    """Turn raw rule counts into a probability table. Empty counts are an error."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("cannot score an empty rule count table")
    probs = {rule: count / total for rule, count in counts.items()}
    return RuleTable(dict(counts), probs, k_max, total)


def mine_rules(
    vocab: Iterable[str],
    pos: PosLexicon | Callable[[str], str] | None = None,
    config: MedConfig | None = None,
) -> RuleTable:
    """Mine transformation rules from every vocabulary pair within ``k_max``.

    Every ordered pair of distinct words whose indel distance lies in
    ``[1, k_max]`` contributes one count to its extracted rule (type
    frequency). Pairs are pruned with the character-count prefilter, then
    one banded alignment per pair gives its distance and its forward rule;
    the reverse rule is read off a second band of that distance's width.
    Neither filter can drop a pair the exhaustive scan would keep.
    """
    config = config or MedConfig()
    words = sorted(set(vocab))
    tagger = as_tagger(pos)
    k = config.k_max
    counts: Counter[TransformationRule] = Counter()
    if len(words) < 2 or k < 1:
        return RuleTable.empty(k)

    signatures = CharSignatures(words)
    for row, a in enumerate(words[:-1]):
        for other in signatures.within(a, k, start=row + 1):
            b = words[int(other)]
            band = _band(a, b, k)
            if band is None:
                continue
            d, rows = band
            counts[TransformationRule(_traceback(a, b, rows, k), tagger(a))] += 1
            _, back = _band(b, a, d)
            counts[TransformationRule(_traceback(b, a, back, d), tagger(b))] += 1

    if not counts:
        return RuleTable.empty(k)
    return score_rules(counts, k)


def format_actions(actions: Iterable[Action]) -> str:
    parts = []
    for action in actions:
        if action.ch in {":", "|", "\t", "\n"} or len(action.ch) != 1:
            raise ValueError(f"action character not serializable: {action.ch!r}")
        parts.append(f"{action.op}:{action.pos}:{action.ch}")
    return "|".join(parts)


def parse_actions(text: str) -> tuple[Action, ...]:
    if not text:
        return ()
    actions = []
    for part in text.split("|"):
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(f"malformed action: {part!r}")
        op, pos, ch = fields
        if op not in _OPS or pos not in _POSITIONS or len(ch) != 1:
            raise ValueError(f"malformed action: {part!r}")
        actions.append(Action(op, pos, ch))
    return tuple(actions)


def save_rules(table: RuleTable, path: str | Path) -> None:
    """Write the rule table as TSV: actions, POS tag, count, probability."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"#k_max\t{table.k_max}\n")
        for rule, count, prob in table.ranked():
            handle.write(
                f"{format_actions(rule.actions)}\t{rule.pos_tag}\t{count}\t{prob!r}\n"
            )


def load_rules(path: str | Path) -> RuleTable:
    counts: dict[TransformationRule, int] = {}
    stored_probs: dict[TransformationRule, float] = {}
    k_max = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            header = line.startswith("#k_max\t")
            if not header and len(fields) != 4:
                raise ValueError(f"{path}: malformed rule line {lineno}: {line!r}")
            try:
                if header:
                    k_max = int(fields[1])
                    continue
                count, prob = int(fields[2]), float(fields[3])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            rule = TransformationRule(parse_actions(fields[0]), fields[1])
            if rule in counts:
                raise ValueError(f"{path}: duplicate rule on line {lineno}")
            counts[rule] = count
            stored_probs[rule] = prob
    if not counts:
        raise ValueError(f"{path}: no rules found")
    if not k_max:
        k_max = max(len(r.actions) for r in counts)
    total = sum(counts.values())
    for rule, prob in stored_probs.items():
        if not math.isclose(prob, counts[rule] / total, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"{path}: stored probability inconsistent for {rule}")
    return RuleTable(counts, stored_probs, k_max, total)

"""Transformation rules between morphologically related word forms.

A rule is the ordered list of single-character edit actions that turns one
word into another along a minimum-cost alignment that allows insertions and
deletions but no substitutions, together with the part-of-speech tag of the
source word. Insertions and deletions cost one each, always, so this
distance equals ``len(w) + len(w2) - 2 * lcs(w, w2)``.

One bit-parallel LCS alignment (Allison & Dix, IPL 1986; Hyyrö, 2004),
one Python int per prefix of the target word, gives both the distance and,
by tracing back over its rows, the rule. The distance is symmetric, so the
same rows give the reverse rule too. One character-count prefilter
(``CharSignatures``) narrows the vocabulary to the words that can lie
within ``k`` before any alignment runs; it reads per-character inverted
lists, so a query costs the length of its characters' lists rather than
vocabulary size times alphabet size. ``CharSignatures.neighbours`` runs
the prefilter, the alignment and the traceback together, and it is the
one vocabulary search: rule mining and formation generation both call it.

Each action records its operation, the character involved, and a coarse
position. Positions are judged in the alignment's left-to-right order:
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
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import textfiles
from .config import ExperimentConfig
from .corpus import UNKNOWN_TAG

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
    allowed; neither is configurable. ``k_max`` is the config key's.
    """

    k_max: int = ExperimentConfig.k_max

    def __post_init__(self) -> None:
        if self.k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {self.k_max}")


def _lcs_rows(w: str, w2: str) -> list[int]:
    """Bit-parallel LCS rows of ``w`` against each prefix of ``w2``.

    Row ``j`` holds one bit per character of ``w``: bit ``i`` is set when
    ``lcs(w[:i + 1], w2[:j])`` exceeds ``lcs(w[:i], w2[:j])``, so
    ``lcs(w[:i], w2[:j])`` is the popcount of the row's low ``i`` bits and
    the pair's distance is ``len(w) + len(w2) - 2 * rows[-1].bit_count()``.
    Each row is one step of Allison & Dix (IPL 1986) in Hyyrö's form (2004)
    over ``w``'s per-character match masks: a few Python-int operations,
    however long the words.
    """
    masks: dict[str, int] = {}
    for i, c in enumerate(w):
        masks[c] = masks.get(c, 0) | 1 << i
    v = -1  # the complement of a row; its bits from len(w) up stay set
    rows = [0]
    for c in w2:
        u = v & masks.get(c, 0)
        v = (v + u) | (v - u)
        rows.append(~v)
    return rows


def _traceback(w: str, w2: str, rows: list[int], transposed: bool = False
               ) -> tuple[Action, ...]:
    """The canonical actions turning ``w`` into ``w2``, read off LCS rows.

    ``rows`` are ``_lcs_rows(w, w2)``, or ``_lcs_rows(w2, w)`` when
    ``transposed``: the LCS is symmetric, so one set of rows serves a pair
    in both directions. Cell ``(i, j)`` has distance
    ``i + j - 2 * lcs(w[:i], w2[:j])``. Walking back from the terminal cell,
    a match is preferred, then a deletion from the source, then an
    insertion. A match is taken whenever the characters agree, since it
    then never changes the distance, and a deletion when it costs exactly
    one, that is when it keeps the LCS. Each action's position is judged
    against ``w2[:j] + w[i:]``, the string just before it in left-to-right
    order, and the actions are returned in that order.
    """
    def lcs(i: int, j: int) -> int:
        row, low = (rows[i], j) if transposed else (rows[j], i)
        return (row & ((1 << low) - 1)).bit_count()

    n = len(w)
    actions: list[Action] = []
    i, j = n, len(w2)
    common = lcs(i, j)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and w[i - 1] == w2[j - 1]:
            i -= 1
            j -= 1
            common -= 1
        elif i > 0 and lcs(i - 1, j) == common:
            i -= 1
            pos = BEGIN if j == 0 else END if i == n - 1 else MIDDLE
            actions.append(Action(DELETE, pos, w[i]))
        else:
            j -= 1
            pos = END if i == n else BEGIN if j == 0 else MIDDLE
            actions.append(Action(INSERT, pos, w2[j]))
    actions.reverse()
    return tuple(actions)


def extract_rule(w: str, w2: str, pos_tag: str = UNKNOWN_TAG) -> TransformationRule:
    """Extract the canonical transformation rule turning ``w`` into ``w2``."""
    return TransformationRule(_traceback(w, w2, _lcs_rows(w, w2)), pos_tag)


_NO_ROWS = np.empty(0, dtype=np.intp)
_CUT_LISTS_OVER = 1024  # rows


class CharSignatures:
    """Inverted character-count lists of a word list, and its indel search.

    The L1 distance between two words' character counts never exceeds their
    indel distance, so ``within`` keeps every word a distance search needs,
    and ``neighbours`` aligns only the words it keeps.
    For each character c and each j >= 1, the ascending rows holding at least
    j copies of c are kept; merging w's lists (ScanCount) gives each row's
    multiset overlap with w, and L1 = len(s) + len(w) - 2 * overlap. This is
    the q-gram count filter of Gravano et al. (VLDB 2001) with q = 1.
    """

    def __init__(self, words: Sequence[str]) -> None:
        self.words = words
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
        The work is the length of w's lists, each cut at ``start`` when it is
        long, plus a few passes over the rows.
        """
        rows = self._rows
        # Cutting costs a call per list, which pays only on long lists; rows
        # before ``start`` left in short ones are dropped with the overlap's head.
        hits = [h[h.searchsorted(start):] if start and len(h) > _CUT_LISTS_OVER else h
                for c, n in Counter(w).items() for j in range(1, n + 1)
                if (h := rows.get((c, j))) is not None]
        overlap = np.bincount(np.concatenate([_NO_ROWS, *hits]), minlength=len(self._lens))
        # L1 = len(s) + len(w) - 2 * overlap <= k
        excess = self._lens[start:] - 2 * overlap[start:]
        return np.nonzero(excess <= k - len(w))[0] + start

    def neighbours(self, w: str, k: int, start: int = 0) -> Iterator[
            tuple[str, int, tuple[Action, ...], Callable[[], tuple[Action, ...]]]]:
        """``(word, distance, actions, reverse)`` for each word within indel distance ``k``.

        Words are taken from row ``start`` on, in row order, and ``w`` itself
        is skipped. Each survivor of ``within`` gets one set of LCS rows;
        ``actions``, turning ``w`` into the word, are traced back over them,
        and ``reverse()`` traces the actions turning the word into ``w`` over
        the same rows.
        """
        words = self.words
        for row in self.within(w, k, start).tolist():
            other = words[row]
            if other == w:
                continue
            rows = _lcs_rows(w, other)
            d = len(w) + len(other) - 2 * rows[-1].bit_count()
            if d <= k:
                yield other, d, _traceback(w, other, rows), partial(
                    _traceback, other, w, rows, True)


@dataclass
class RuleTable:
    """Mined rules with type-frequency counts and maximum-likelihood probs.

    ``snapshot`` is the fingerprint of the snapshot whose vocabulary was
    mined, or empty when the vocabulary came from elsewhere.
    """

    counts: dict[TransformationRule, int]
    probs: dict[TransformationRule, float]
    k_max: int
    total_count: int
    snapshot: str = ""

    @classmethod
    def empty(cls, k_max: int) -> "RuleTable":
        return cls({}, {}, k_max, 0)

    def __len__(self) -> int:
        return len(self.counts)

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
    tagger: Callable[[str], str] | None = None,
    config: MedConfig | None = None,
) -> RuleTable:
    """Mine transformation rules from every vocabulary pair within ``k_max``.

    Every ordered pair of distinct words whose indel distance lies in
    ``[1, k_max]`` contributes one count to its extracted rule (type
    frequency), tagged with its source word's POS by ``tagger`` (every
    word ``UNKNOWN_TAG`` without one). Each word's later partners, with
    both rules of each, come from ``CharSignatures.neighbours``, which
    aligns each pair once and traces the reverse rule over the forward
    rule's rows. Neither filter of the search can drop a pair the
    exhaustive scan would keep.
    """
    config = config or MedConfig()
    words = sorted(set(vocab))
    tagger = tagger or (lambda term: UNKNOWN_TAG)
    k = config.k_max
    counts: Counter[TransformationRule] = Counter()
    if len(words) < 2 or k < 1:
        return RuleTable.empty(k)

    signatures = CharSignatures(words)
    for row, a in enumerate(words[:-1]):
        for b, _, actions, reverse in signatures.neighbours(a, k, start=row + 1):
            counts[TransformationRule(actions, tagger(a))] += 1
            counts[TransformationRule(reverse(), tagger(b))] += 1

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
    """Write the rule table as TSV: actions, POS tag, count, probability.

    The ``#k_max`` header comes first, then ``#snapshot`` when the table
    records the snapshot it was mined from.
    """
    with textfiles.replacing(path) as handle:
        handle.write(f"#k_max\t{table.k_max}\n")
        if table.snapshot:
            handle.write(f"#snapshot\t{table.snapshot}\n")
        for rule, count, prob in table.ranked():
            handle.write(
                f"{format_actions(rule.actions)}\t{rule.pos_tag}\t{count}\t{prob!r}\n"
            )


def load_rules(path: str | Path) -> RuleTable:
    counts: dict[TransformationRule, int] = {}
    stored_probs: dict[TransformationRule, float] = {}
    k_max, snapshot = 0, ""
    for lineno, line in textfiles.lines(path):
        fields = line.split("\t")
        if line.startswith("#snapshot\t"):
            if len(fields) != 2 or not fields[1] or snapshot:
                raise ValueError(f"{path}: line {lineno}: expected one "
                                 f"#snapshot<TAB>fingerprint header: {line!r}")
            snapshot = fields[1]
            continue
        header = line.startswith("#k_max\t")
        if not header and len(fields) != 4:
            raise ValueError(f"{path}: malformed rule line {lineno}: {line!r}")
        try:
            if header:
                if len(fields) != 2 or k_max or int(fields[1]) < 1:
                    raise ValueError(f"expected one #k_max<TAB>integer header of 1 "
                                     f"or more: {line!r}")
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
    return RuleTable(counts, stored_probs, k_max, total, snapshot)

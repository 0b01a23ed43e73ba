"""Corpus ingestion: tokenization, collection statistics, and co-occurrence counts.

Documents are tokenized into lowercase letter runs. Two statistics tables are
built from the token stream: an inverted index with document lengths and
collection frequencies, and each term's token positions, from which sliding
w-token window counts follow: a token at position p of an n-token document
lies in the windows starting in [max(0, p - w + 1), min(p, n - w)]. Both
tables can be written to a snapshot directory and reloaded without loss.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

FORMAT_VERSION = 2

# A token is a maximal run of Unicode letters; digits, underscores and
# punctuation all act as separators.
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

UNKNOWN_TAG = "UNK"


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@dataclass(frozen=True)
class StopwordList:
    """Exact-match stopword filter applied to normalized tokens."""

    words: frozenset[str] = frozenset()

    def __contains__(self, token: str) -> bool:
        return token in self.words

    def __len__(self) -> int:
        return len(self.words)


def load_stopwords(path: str | Path) -> StopwordList:
    """Read one stopword per line, normalizing case like the tokenizer does."""
    words = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            word = line.strip().lower()
            if word:
                words.add(word)
    return StopwordList(frozenset(words))


def tokenize(text: str, stopwords: StopwordList | None = None) -> list[str]:
    """Split text into lowercase letter-run tokens, dropping stopwords.

    Token order is preserved; no stemming or other conflation is applied here.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if stopwords is not None and len(stopwords):
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


class CollectionIndex:
    """Inverted index with document lengths and collection term frequencies."""

    def __init__(self) -> None:
        self.postings: dict[str, dict[str, int]] = {}
        self.doc_len: dict[str, int] = {}
        self.collection_freq: Counter[str] = Counter()
        self.total_tokens: int = 0

    @property
    def vocabulary(self) -> set[str]:
        return set(self.postings)

    @property
    def num_docs(self) -> int:
        return len(self.doc_len)

    def tf(self, term: str, doc_id: str) -> int:
        return self.postings.get(term, {}).get(doc_id, 0)

    def df(self, term: str) -> int:
        return len(self.postings.get(term, {}))

    def cf(self, term: str) -> int:
        return self.collection_freq.get(term, 0)

    def p_collection(self, term: str) -> float:
        """Maximum-likelihood collection language model p(t|C)."""
        if self.total_tokens == 0:
            return 0.0
        return self.collection_freq.get(term, 0) / self.total_tokens

    def add_document(self, doc_id: str, tokens: list[str]) -> None:
        if doc_id in self.doc_len:
            raise ValueError(f"duplicate document identifier: {doc_id!r}")
        self.doc_len[doc_id] = len(tokens)
        self.total_tokens += len(tokens)
        for term, count in Counter(tokens).items():
            self.postings.setdefault(term, {})[doc_id] = count
            self.collection_freq[term] += count


def build_index(
    docs: Iterable[Document], stopwords: StopwordList | None = None
) -> CollectionIndex:
    """Tokenize documents and accumulate index statistics.

    Duplicate document identifiers raise ValueError naming the identifier.
    """
    index = CollectionIndex()
    for doc in docs:
        index.add_document(doc.doc_id, tokenize(doc.text, stopwords))
    return index


class CooccurrenceTable:
    """Sliding-window co-occurrence counts, computed from token positions.

    Windows of ``window_size`` (w) tokens advance one token at a time within
    each document and never cross document boundaries; a document of n <= w
    tokens holds one window. A window counts each distinct unordered term pair
    once, and self pairs are excluded. Only the document lengths and each
    term's ascending positions in each non-empty document are stored
    (``positions[term][doc]``, documents numbered as added). A term's windows
    in a document are the union of [max(0, p - w + 1), min(p, n - w)] over its
    positions p; ``unigram_window_count`` sums the union's size over documents
    and ``pair_count(a, b)`` the size of two terms' intersection.
    """

    def __init__(self, window_size: int) -> None:
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        self.window_size = window_size
        self.positions: dict[str, dict[int, list[int]]] = {}
        self.doc_len: list[int] = []
        self.unigram_window_count: Counter[str] = Counter()
        self.total_windows: int = 0

    def _windows(self, positions: list[int], n: int) -> int:
        """How many windows of an n-token document hold any of the ascending positions."""
        w = self.window_size
        final = n - w if n > w else 0  # the last window start
        count, counted_to = 0, -1
        for p in positions:  # add the starts in [p - w + 1, min(p, final)] not yet counted
            last = p if p < final else final
            first = p - w + 1 if p - w >= counted_to else counted_to + 1
            if last >= first:
                count += last - first + 1
                counted_to = last
        return count

    def pair_count(self, a: str, b: str) -> int:
        if a == b:
            return 0
        in_a, in_b = self.positions.get(a, {}), self.positions.get(b, {})
        count = 0
        for doc in in_a.keys() & in_b.keys():
            pos_a, pos_b, n = in_a[doc], in_b[doc], self.doc_len[doc]
            # |A & B| = |A| + |B| - |A | B|, and A | B are the windows holding either term.
            count += (self._windows(pos_a, n) + self._windows(pos_b, n)
                      - self._windows(sorted(pos_a + pos_b), n))
        return count

    def add_document(self, tokens: list[str]) -> None:
        if not tokens:
            return
        held: dict[str, list[int]] = {}
        for p, term in enumerate(tokens):
            held.setdefault(term, []).append(p)
        self._add(held, len(tokens))

    def _add(self, held: dict[str, list[int]], n: int) -> None:
        doc = len(self.doc_len)
        self.doc_len.append(n)
        self.total_windows += max(0, n - self.window_size) + 1
        for term, positions in held.items():
            self.positions.setdefault(term, {})[doc] = positions
            self.unigram_window_count[term] += self._windows(positions, n)


@dataclass
class PosLexicon:
    """Term to part-of-speech mapping with an unknown-tag fallback."""

    tags: dict[str, str] = field(default_factory=dict)

    def tag_of(self, term: str) -> str:
        return self.tags.get(term, UNKNOWN_TAG)

    @property
    def tagset(self) -> set[str]:
        return set(self.tags.values()) | {UNKNOWN_TAG}


def load_pos_lexicon(path: str | Path) -> PosLexicon:
    """Read tab-separated ``term<TAB>tag`` lines; blank lines are skipped."""
    tags: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0] or not fields[1]:
                raise ValueError(f"{path}: malformed lexicon line {lineno}: {line!r}")
            tags[fields[0]] = fields[1]
    return PosLexicon(tags)


def as_tagger(pos: PosLexicon | Callable[[str], str] | None) -> Callable[[str], str]:
    """Accept a lexicon, a plain callable, or None (everything unknown)."""
    if pos is None:
        return lambda term: UNKNOWN_TAG
    if isinstance(pos, PosLexicon):
        return pos.tag_of
    return pos


def read_documents(path: str | Path) -> list[Document]:
    """Read a document file in TREC-style SGML or ``id<TAB>text`` lines.

    The format is sniffed from the first non-blank line: files opening a
    ``<DOC>`` element are parsed as SGML with DOCNO and TEXT fields, anything
    else is treated as one tab-separated document per line.
    """
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("<DOC>"):
        return _read_sgml(text, str(path))
    return _read_tsv(text, str(path))


def _read_sgml(text: str, source: str) -> list[Document]:
    docs = []
    for block in re.findall(r"<DOC>(.*?)</DOC>", text, flags=re.DOTALL):
        docno = re.search(r"<DOCNO>(.*?)</DOCNO>", block, flags=re.DOTALL)
        if docno is None:
            raise ValueError(f"{source}: document block without DOCNO")
        doc_id = docno.group(1).strip()
        if doc_id.split() != [doc_id]:  # run files are whitespace-separated
            raise ValueError(f"{source}: DOCNO {doc_id!r} is empty or holds whitespace")
        body = "\n".join(re.findall(r"<TEXT>(.*?)</TEXT>", block, flags=re.DOTALL))
        docs.append(Document(doc_id, body.strip()))
    if not docs:
        raise ValueError(f"{source}: no <DOC> blocks found")
    return docs


def _read_tsv(text: str, source: str) -> list[Document]:
    docs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        doc_id, sep, body = line.partition("\t")
        if not sep or doc_id.split() != [doc_id]:  # run files are whitespace-separated
            raise ValueError(f"{source}: malformed document line {lineno}: "
                             f"expected an id without whitespace, a tab, then the text")
        docs.append(Document(doc_id, body))
    if not docs:
        raise ValueError(f"{source}: no documents found")
    return docs


def save_index(index: CollectionIndex, directory: str | Path) -> None:
    """Write the index as sorted TSV files plus a JSON manifest.

    Writes are fully sorted so repeated runs over the same corpus produce
    byte-identical snapshots.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "collection_index",
        "num_docs": index.num_docs,
        "total_tokens": index.total_tokens,
        "vocabulary_size": len(index.postings),
        "tokenizer": {"lowercase": True, "token_pattern": _TOKEN_RE.pattern},
    }
    _write_json(directory / "index.json", manifest)
    with open(directory / "postings.tsv", "w", encoding="utf-8") as handle:
        for term in sorted(index.postings):
            for doc_id in sorted(index.postings[term]):
                handle.write(f"{term}\t{doc_id}\t{index.postings[term][doc_id]}\n")
    with open(directory / "doc_lens.tsv", "w", encoding="utf-8") as handle:
        for doc_id in sorted(index.doc_len):
            handle.write(f"{doc_id}\t{index.doc_len[doc_id]}\n")


def load_index(directory: str | Path) -> CollectionIndex:
    directory = Path(directory)
    manifest = _read_json(directory / "index.json", "collection_index")
    index = CollectionIndex()
    with open(directory / "doc_lens.tsv", encoding="utf-8") as handle:
        for line in handle:
            doc_id, length = line.rstrip("\n").split("\t")
            index.doc_len[doc_id] = int(length)
            index.total_tokens += int(length)
    with open(directory / "postings.tsv", encoding="utf-8") as handle:
        for line in handle:
            term, doc_id, count = line.rstrip("\n").split("\t")
            index.postings.setdefault(term, {})[doc_id] = int(count)
            index.collection_freq[term] += int(count)
    if index.num_docs != manifest["num_docs"]:
        raise ValueError(f"{directory}: document count mismatch against manifest")
    if index.total_tokens != manifest["total_tokens"]:
        raise ValueError(f"{directory}: token count mismatch against manifest")
    if len(index.postings) != manifest["vocabulary_size"]:
        raise ValueError(f"{directory}: vocabulary size mismatch against manifest")
    return index


def save_cooccurrence(table: CooccurrenceTable, directory: str | Path) -> None:
    """Write the window size and count plus ``term<TAB>doc<TAB>p1,p2,...`` lines."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "cooccurrence",
        "window_size": table.window_size,
        "total_windows": table.total_windows,
    }
    _write_json(directory / "cooccurrence.json", manifest)
    with open(directory / "positions.tsv", "w", encoding="utf-8") as handle:
        for term in sorted(table.positions):
            for doc, positions in sorted(table.positions[term].items()):
                handle.write(f"{term}\t{doc}\t{','.join(map(str, positions))}\n")


def load_cooccurrence(directory: str | Path) -> CooccurrenceTable:
    directory = Path(directory)
    manifest = _read_json(directory / "cooccurrence.json", "cooccurrence")
    held_by_doc: dict[int, dict[str, list[int]]] = {}
    with open(directory / "positions.tsv", encoding="utf-8") as handle:
        for line in handle:
            term, doc, positions = line.rstrip("\n").split("\t")
            held_by_doc.setdefault(int(doc), {})[term] = list(map(int, positions.split(",")))
    table = CooccurrenceTable(manifest["window_size"])
    # Every position of a document holds a token, so its last one gives its length.
    for _, held in sorted(held_by_doc.items()):
        table._add(held, 1 + max(positions[-1] for positions in held.values()))
    if table.total_windows != manifest["total_windows"]:
        raise ValueError(f"{directory}: window count mismatch against manifest")
    return table


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _read_json(path: Path, expected_kind: str) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("kind") != expected_kind:
        raise ValueError(f"{path}: expected {expected_kind} snapshot")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version")
    return payload

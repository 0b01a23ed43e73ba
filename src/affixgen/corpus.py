"""Corpus ingestion: tokenization, collection statistics, and co-occurrence counts.

Documents are tokenized into lowercase letter runs. A snapshot, written
by ``save_index``, stores only what the corpus determines: each document's
length and each term's token positions, described by one manifest. Both
tables are built only by reading a snapshot: ``load_index`` gives an array
index, term-major CSR postings and a doc-major forward slice with the
document lengths and collection frequencies (a term frequency is a position
count, documents are numbered by their line in the lengths file and terms
by their order in the positions file), and ``load_cooccurrence`` sliding
w-token window counts for the window the reader asks for: a token at
position p of an n-token document lies in the windows starting in
[max(0, p - w + 1), min(p, n - w)]. Both loaders accept positions rows only
as ``save_index`` writes them.
"""

from __future__ import annotations

import json
import operator
import os
import re
from array import array
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .config import ExperimentConfig

FORMAT_VERSION = 4

# Data files of a version-2 snapshot that later versions no longer write.
_VERSION_2_FILES = ("postings.tsv", "cooccurrence.json")

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
    """Postings as arrays: a term-major CSR and a doc-major forward slice.

    Document d is line d of the snapshot's ``doc_lens.tsv`` (id
    ``doc_ids[d]``, ``lengths[d]`` tokens) and term t is the t-th term of
    ``positions.tsv``, whose terms ascend. Term t's postings are the
    ascending document numbers ``term_docs[term_ptr[t]:term_ptr[t + 1]]``
    with their term frequencies in ``term_tfs``; document d's terms are the
    ascending term ids ``doc_terms[doc_ptr[d]:doc_ptr[d + 1]]`` with theirs
    in ``doc_tfs``. ``term_cf`` holds each term's collection frequency,
    ``id_rank`` each document's rank by id, which breaks score ties, and
    ``lengths`` equals ``length_values[length_of]`` (the distinct lengths,
    ascending). ``postings``, ``doc_len`` and ``collection_freq`` are
    read-only mapping views of these arrays, keyed by term and document id.
    """

    def __init__(self, doc_ids: list[str], lengths: Sequence[int], terms: list[str],
                 term_ptr: Sequence[int], term_docs: Sequence[int],
                 term_tfs: Sequence[int]) -> None:
        self.doc_ids, self.terms = doc_ids, terms
        self.doc_number = {doc_id: d for d, doc_id in enumerate(doc_ids)}
        self.term_id = {term: t for t, term in enumerate(terms)}
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.length_values, self.length_of = np.unique(self.lengths, return_inverse=True)
        self.term_ptr = np.asarray(term_ptr, dtype=np.int64)
        self.term_docs = np.asarray(term_docs, dtype=np.intc)
        self.term_tfs = np.asarray(term_tfs, dtype=np.intc)
        running = np.concatenate(([0], np.cumsum(self.term_tfs, dtype=np.int64)))
        self.term_cf = running[self.term_ptr[1:]] - running[self.term_ptr[:-1]]
        self.total_tokens = int(running[-1])
        term_of = np.repeat(np.arange(len(terms), dtype=np.intc), np.diff(self.term_ptr))
        by_doc = np.argsort(self.term_docs.astype(np.int64) * len(terms) + term_of)
        self.doc_terms, self.doc_tfs = term_of[by_doc], self.term_tfs[by_doc]
        self.doc_ptr = np.zeros(len(doc_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.term_docs, minlength=len(doc_ids)), out=self.doc_ptr[1:])
        by_id = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
        self.id_rank = np.empty(len(doc_ids), dtype=np.int64)
        self.id_rank[by_id] = np.arange(len(doc_ids))

    @property
    def postings(self) -> Mapping[str, Mapping[str, int]]:
        return _View(self.terms, self.term_id, lambda t: _Postings(self, t))

    @property
    def doc_len(self) -> Mapping[str, int]:
        return _View(self.doc_ids, self.doc_number, lambda d: int(self.lengths[d]))

    @property
    def collection_freq(self) -> Mapping[str, int]:
        return _View(self.terms, self.term_id, lambda t: int(self.term_cf[t]))

    @property
    def vocabulary(self) -> set[str]:
        return set(self.terms)

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    def tf(self, term: str, doc_id: str) -> int:
        t = self.term_id.get(term)
        return 0 if t is None else _Postings(self, t).get(doc_id, 0)

    def df(self, term: str) -> int:
        t = self.term_id.get(term)
        return 0 if t is None else int(self.term_ptr[t + 1] - self.term_ptr[t])

    def cf(self, term: str) -> int:
        t = self.term_id.get(term)
        return 0 if t is None else int(self.term_cf[t])

    def p_collection(self, term: str) -> float:
        """Maximum-likelihood collection language model p(t|C)."""
        if self.total_tokens == 0:
            return 0.0
        return self.cf(term) / self.total_tokens


class _View(Mapping):
    """Read-only mapping from names to values of the index's arrays."""

    def __init__(self, names: list[str], number: dict[str, int], value: Callable) -> None:
        self._names, self._number, self._value = names, number, value

    def __getitem__(self, name: str):
        return self._value(self._number[name])

    def __contains__(self, name: object) -> bool:
        return name in self._number

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


class _Postings(Mapping):
    """Read-only ``doc_id -> tf`` mapping of term t's postings."""

    def __init__(self, index: CollectionIndex, t: int) -> None:
        lo, hi = index.term_ptr[t], index.term_ptr[t + 1]
        self._docs, self._tfs = index.term_docs[lo:hi], index.term_tfs[lo:hi]
        self._doc_ids, self._number = index.doc_ids, index.doc_number

    def __getitem__(self, doc_id: str) -> int:
        d = self._number[doc_id]
        at = np.searchsorted(self._docs, d)
        if at == len(self._docs) or self._docs[at] != d:
            raise KeyError(doc_id)
        return int(self._tfs[at])

    def __iter__(self) -> Iterator[str]:
        return map(self._doc_ids.__getitem__, self._docs.tolist())

    def __len__(self) -> int:
        return len(self._docs)


class CooccurrenceTable:
    """Sliding-window co-occurrence counts, computed from token positions.

    Windows of ``window_size`` (w) tokens advance one token at a time within
    each document and never cross document boundaries; a document of
    0 < n <= w tokens holds one window, an empty one none. A window counts
    each distinct unordered term pair once, and self pairs are excluded.
    Only the document lengths (``doc_len``, one per line of the snapshot's
    ``doc_lens.tsv``, empty documents included, so a document's number is
    its line there) and each term's ascending positions in each document
    holding it (``positions[term][doc]``) are stored. A term's windows in a
    document are the union of [max(0, p - w + 1), min(p, n - w)] over its
    positions p;
    ``unigram_window_count`` sums the union's size over documents and
    ``pair_count(a, b)`` the size of two terms' intersection.
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


class PairCountMemo(CooccurrenceTable):
    """A view of a table that counts each unordered pair at most once.

    It shares the table's data, and remembers every pair count it computes,
    so it is made for one query and dropped with it; a memo kept for a whole
    run would grow with every pair any query touched.
    """

    def __init__(self, table: CooccurrenceTable) -> None:
        vars(self).update(vars(table))
        self._count = table.pair_count
        self._counts: dict[tuple[str, str], int] = {}

    def pair_count(self, a: str, b: str) -> int:
        key = (a, b) if a <= b else (b, a)
        count = self._counts.get(key)
        if count is None:
            count = self._counts[key] = self._count(*key)
        return count


@dataclass
class PosLexicon:
    """Term to part-of-speech mapping with an unknown-tag fallback."""

    tags: dict[str, str] = field(default_factory=dict)

    def tag_of(self, term: str) -> str:
        return self.tags.get(term, UNKNOWN_TAG)


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


def save_index(documents: Iterable[tuple[str, list[str]]], directory: str | Path) -> dict:
    """Write documents' tokens as a snapshot: two TSV files and the manifest ``index.json``.

    ``documents`` yields ``(doc_id, tokens)`` pairs, read once; a repeated
    document id raises ValueError before any file is written. ``doc_lens.tsv``
    holds a ``doc_id<TAB>length`` line per document in the order given; a
    document's number is its 0-based line there. ``positions.tsv`` holds a
    sorted ``term<TAB>doc<TAB>p1,p2,...`` line per term and document holding
    it, so repeated runs over the same corpus write byte-identical snapshots;
    a term frequency is the number of positions. No window is stored: readers
    count windows of the size they are given. Each file is written beside its
    target and renamed over it, the manifest ``index.json`` last, which
    records the data files' sizes; then the files of a version-2 snapshot, if
    any, are removed. Returns the manifest.
    """
    doc_len: dict[str, int] = {}
    positions: dict[str, dict[int, list[int]]] = {}
    for doc_id, tokens in documents:
        if doc_id in doc_len:
            raise ValueError(f"duplicate document identifier: {doc_id!r}")
        doc = len(doc_len)
        doc_len[doc_id] = len(tokens)
        held: dict[str, list[int]] = {}
        for p, term in enumerate(tokens):
            held.setdefault(term, []).append(p)
        for term, at in held.items():
            positions.setdefault(term, {})[doc] = at
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    file_bytes = {
        "doc_lens.tsv": _write_atomic(
            directory / "doc_lens.tsv",
            (f"{doc_id}\t{n}\n" for doc_id, n in doc_len.items())),
        "positions.tsv": _write_atomic(  # documents were numbered in ascending order
            directory / "positions.tsv",
            (f"{term}\t{doc}\t{','.join(map(str, held))}\n"
             for term in sorted(positions) for doc, held in positions[term].items())),
    }
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "snapshot",
        "num_docs": len(doc_len),
        "total_tokens": sum(doc_len.values()),
        "vocabulary_size": len(positions),
        "tokenizer": {"lowercase": True, "token_pattern": _TOKEN_RE.pattern},
        "file_bytes": file_bytes,
    }
    text = json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    _write_atomic(directory / "index.json", [text])
    for stale in _VERSION_2_FILES:
        (directory / stale).unlink(missing_ok=True)
    return manifest


def load_index(directory: str | Path) -> CollectionIndex:
    """Read a snapshot's index; a term frequency is the term's position count."""
    directory = Path(directory)
    manifest, doc_ids, lens = _read_snapshot(directory)
    terms: list[str] = []
    term_ptr, term_docs, term_tfs = array("i"), array("i"), array("i")
    for _, term, opens, doc, positions in _position_rows(directory, len(doc_ids)):
        if opens:
            terms.append(term)
            term_ptr.append(len(term_docs))
        term_docs.append(doc)
        term_tfs.append(positions.count(",") + 1)
    term_ptr.append(len(term_docs))
    index = CollectionIndex(doc_ids, lens, terms, term_ptr, term_docs, term_tfs)
    # A repeated document id merges two documents.
    _check_count(directory, manifest, "num_docs", len(index.doc_number))
    _check_count(directory, manifest, "total_tokens", index.total_tokens)
    _check_count(directory, manifest, "vocabulary_size", len(terms))
    return index


def load_cooccurrence(
    directory: str | Path, window_size: int = ExperimentConfig.context_window
) -> CooccurrenceTable:
    """Read a snapshot's positions into a table of ``window_size``-token windows.

    Document lengths come from ``doc_lens.tsv``, and every window count is
    derived from the positions, so one snapshot serves any window. Each
    row's positions must be strictly ascending, from 0 up to below its
    document's length.
    """
    directory = Path(directory)
    manifest, _, lens = _read_snapshot(directory)
    table = CooccurrenceTable(window_size)
    table.doc_len = lens
    table.total_windows = sum(max(0, n - window_size) + 1 for n in lens if n)
    path, tokens = directory / "positions.tsv", 0
    counts: dict[str, int] = {}
    for lineno, term, opens, doc, text in _position_rows(directory, len(lens)):
        # Most rows hold one position.
        positions = list(map(int, text.split(","))) if "," in text else [int(text)]
        if len(positions) > 1 and not all(map(operator.lt, positions, positions[1:])):
            raise ValueError(f"{path}: line {lineno}: positions {text!r} are not "
                             f"strictly ascending")
        if positions[-1] >= lens[doc]:
            raise ValueError(f"{path}: line {lineno}: position {positions[-1]} is not "
                             f"below the length {lens[doc]} of document {doc}")
        if opens:
            held = table.positions[term] = {}
            counts[term] = 0
        held[doc] = positions
        counts[term] += table._windows(positions, lens[doc])
        tokens += len(positions)
    table.unigram_window_count.update(counts)
    _check_count(directory, manifest, "total_tokens", tokens)
    _check_count(directory, manifest, "vocabulary_size", len(table.positions))
    return table


def _write_atomic(path: Path, lines: Iterable[str]) -> int:
    """Write lines beside ``path`` under a temporary name, rename, and return the size."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path.stat().st_size


def _read_snapshot(directory: Path) -> tuple[dict, list[str], list[int]]:
    """The checked manifest, and the ids and lengths of ``doc_lens.tsv`` in line order."""
    path = directory / "index.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version")
    if manifest.get("kind") != "snapshot":
        raise ValueError(f"{path}: not a snapshot manifest")
    for name in ("doc_lens.tsv", "positions.tsv"):
        size, actual = manifest["file_bytes"].get(name), (directory / name).stat().st_size
        if actual != size:
            raise ValueError(f"{directory / name}: size mismatch against manifest: "
                             f"{actual} bytes, recorded {size}")
    path = directory / "doc_lens.tsv"
    doc_ids, lens = [], []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            try:
                doc_id, length = line.rstrip("\n").split("\t")
                lens.append(int(length))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected a document id, "
                                 f"a tab, then its length") from None
            doc_ids.append(doc_id)
    _check_count(directory, manifest, "num_docs", len(lens))
    _check_count(directory, manifest, "total_tokens", sum(lens))
    return manifest, doc_ids, lens


def _position_rows(
    directory: Path, num_docs: int
) -> Iterator[tuple[int, str, bool, int, str]]:
    """(line number, term, whether the line opens the term's group, document
    number, positions) of each ``positions.tsv`` line.

    Rows must be as ``save_index`` writes them: a non-empty term, terms in
    ascending groups, document numbers strictly ascending within a term, and
    positions ASCII digits joined by single commas. Any other row raises
    ValueError naming the file and line.
    """
    path = directory / "positions.tsv"
    numbers = {str(doc): doc for doc in range(num_docs)}
    last_term, last_doc = "", -1
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            try:
                term, doc, positions = line.rstrip("\n").split("\t")
            except ValueError:  # not three fields
                term = ""
            if not term:
                raise ValueError(f"{path}: line {lineno}: expected a term, a document "
                                 f"number and positions, tab-separated")
            number = numbers.get(doc)
            if number is None:
                raise ValueError(f"{path}: line {lineno}: document number {doc!r} is not "
                                 f"a line of doc_lens.tsv (0 to {num_docs - 1})")
            # Wrapped in commas, an empty item shows as ",,".
            if not (positions.isascii() and (positions.isdigit() or (
                    positions.replace(",", "").isdigit() and ",," not in f",{positions},"))):
                raise ValueError(f"{path}: line {lineno}: positions {positions!r} are not "
                                 f"ASCII digits joined by single commas")
            opens = term != last_term
            if opens:
                if term < last_term:
                    raise ValueError(f"{path}: line {lineno}: term {term!r} comes after "
                                     f"{last_term!r}; terms must ascend in groups")
                last_term = term
            elif number <= last_doc:
                raise ValueError(f"{path}: line {lineno}: document number {number} does "
                                 f"not ascend within term {term!r}")
            last_doc = number
            yield lineno, term, opens, number, positions


def _check_count(directory: Path, manifest: dict, key: str, value: int) -> None:
    if value != manifest[key]:
        raise ValueError(f"{directory}: {key} mismatch against manifest: "
                         f"read {value}, recorded {manifest[key]}")

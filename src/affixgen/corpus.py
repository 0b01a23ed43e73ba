"""Corpus ingestion: tokenization, collection statistics, and co-occurrence counts.

Documents are tokenized into lowercase letter runs. A snapshot, written
by ``save_index``, stores only what the corpus determines: the document
ids and the terms as text, then int32 ``.npy`` arrays of counts (each
document's length, each term's row count, each row's document and position
count) and each row's token positions, described by one manifest that
records the files' sizes and their sha256 fingerprint. One reader,
``read_snapshot``, loads and checks every file with array operations, and
both tables are built only from the ``Snapshot`` it returns, so one read
serves both: ``collection_index`` gives an array index, term-major CSR
postings and a doc-major forward slice with the document lengths and
collection frequencies (a term frequency is a position count, documents
are numbered by their line in ``doc_ids.txt`` and terms by theirs in
``terms.txt``), and ``cooccurrence`` sliding w-token window counts for the
window the reader asks for: a token at position p of an n-token document
lies in the windows starting in [max(0, p - w + 1), min(p, max(n - w, 0))];
the table counts each term's windows when it is built, and a query's pairs
when asked. ``load_index`` and ``load_cooccurrence`` read a snapshot for one
table.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import textfiles
from .config import ExperimentConfig

FORMAT_VERSION = 5

# A snapshot's data files, in the order written and fingerprinted.
_DATA_FILES = ("doc_ids.txt", "terms.txt", "lengths.npy", "dfs.npy", "row_docs.npy",
               "tfs.npy", "positions.npy")
# Data files of version-2 and version-4 snapshots that version 5 no longer writes.
_STALE_FILES = ("postings.tsv", "cooccurrence.json", "doc_lens.tsv", "positions.tsv")
_INT32 = np.dtype("<i4")

# A token is a maximal run of Unicode letters; digits, underscores and
# punctuation all act as separators.
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

UNKNOWN_TAG = "UNK"


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read one stopword per line, normalizing case like the tokenizer does."""
    return frozenset(line.strip().lower() for _, line in textfiles.lines(path))


def tokenize(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Split text into lowercase letter-run tokens, dropping stopwords.

    Token order is preserved; no stemming or other conflation is applied here.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


class CollectionIndex:
    """Postings as arrays: a term-major CSR and a doc-major forward slice.

    Document d is line d of the snapshot's ``doc_ids.txt`` (id
    ``doc_ids[d]``, ``lengths[d]`` tokens) and term t is line t of
    ``terms.txt``, whose terms ascend. Term t's postings are the
    ascending document numbers ``term_docs[term_ptr[t]:term_ptr[t + 1]]``
    with their term frequencies in ``term_tfs``; document d's terms are the
    ascending term ids ``doc_terms[doc_ptr[d]:doc_ptr[d + 1]]`` with theirs
    in ``doc_tfs``. ``term_cf`` holds each term's collection frequency,
    ``id_rank`` each document's rank by id, which breaks score ties, and
    ``lengths`` equals ``length_values[length_of]`` (the distinct lengths,
    ascending). ``postings`` and ``doc_len`` are read-only mapping views of
    these arrays, keyed by term and document id.
    ``fingerprint`` identifies the snapshot the index was read from.
    """

    def __init__(self, doc_ids: list[str], lengths: Sequence[int], terms: list[str],
                 term_ptr: Sequence[int], term_docs: Sequence[int],
                 term_tfs: Sequence[int], fingerprint: str) -> None:
        self.doc_ids, self.terms, self.fingerprint = doc_ids, terms, fingerprint
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
    """Sliding-window co-occurrence counts, computed from a snapshot's positions.

    Windows of ``window_size`` (w) tokens advance one token at a time within
    each document and never cross document boundaries; a document of
    0 < n <= w tokens holds one window, an empty one none. A window counts
    each distinct unordered term pair once, and self pairs are excluded.
    The table holds the checked ``snapshot``, ``total_windows`` and each
    term's ``unigram_window_count``; ``pair_counts`` counts the pairs of a
    query's terms from the snapshot's arrays when asked.
    """

    def __init__(self, snapshot: Snapshot, window_size: int) -> None:
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        self.snapshot, self.window_size = snapshot, window_size
        lengths = snapshot.lengths.astype(np.int64)
        self.total_windows = int(np.maximum(lengths - window_size, 0).sum()
                                 + np.count_nonzero(lengths))
        self.unigram_window_count: Counter[str] = Counter()
        if snapshot.terms:  # an empty collection has no rows to count
            first, last = _window_starts(snapshot, slice(None), snapshot.row_docs.repeat(
                snapshot.tfs), snapshot.row_ptr[:-1], window_size)
            last -= first - 1  # each interval's size
            windows = np.add.reduceat(last, snapshot.row_ptr[snapshot.term_ptr[:-1]])
            self.unigram_window_count.update(dict(zip(snapshot.terms, windows.tolist())))

    def pair_counts(self, terms: Sequence[str]) -> np.ndarray:
        """The int64 matrix of windows holding ``terms[i]`` and ``terms[j]``.

        One pass over the terms' positions: their intervals (see
        ``_window_starts``) are sorted by first start, each is paired with the
        later ones that start by its last start, and one ``bincount`` sums the
        overlaps per pair of terms. The sum is exact because a row's
        intervals are disjoint, and the same term never pairs with itself, so
        a term listed twice, or one outside the vocabulary, counts 0.
        """
        snap = self.snapshot
        slots: dict[int, int] = {}  # term id -> its row and column of ``sums``, from 1
        slot_of = []  # each term's slot; slot 0, all zeros, for a term outside the vocabulary
        for term in terms:
            t = bisect_left(snap.terms, term)  # terms strictly ascend
            slot_of.append(slots.setdefault(t, len(slots) + 1)
                           if t < len(snap.terms) and snap.terms[t] == term else 0)
        held = np.fromiter(slots, dtype=np.int64, count=len(slots))
        lo, hi = snap.row_ptr[snap.term_ptr[held]], snap.row_ptr[snap.term_ptr[held + 1]]
        at = _ranges(lo, hi - lo)  # a term's positions are one block
        rows = snap.row_ptr.searchsorted(at, side="right") - 1
        start, end = _window_starts(snap, at, snap.row_docs[rows], at == snap.row_ptr[rows],
                                    self.window_size)
        order = start.argsort()
        start, end = start[order], end[order]
        owner = np.arange(1, len(held) + 1).repeat(hi - lo)[order]
        after = np.arange(1, len(start) + 1)
        # The later intervals that start by this one's last start; none for an empty one.
        later = np.maximum(start.searchsorted(end, side="right") - after, 0)
        a, b = (after - 1).repeat(later), _ranges(after, later)
        overlap = np.minimum(end[a], end[b]) - start[b] + 1
        m = len(slots) + 1
        sums = np.bincount(owner[a] * m + owner[b], overlap, m * m).reshape(m, m)
        return (sums + sums.T).astype(np.int64).take(slot_of, 0).take(slot_of, 1)

    def pair_count(self, a: str, b: str) -> int:
        return int(self.pair_counts([a, b])[0, 1])


def _ranges(lo: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges ``lo[i]:lo[i] + sizes[i]`` one after another, as one int64 array."""
    ends = sizes.cumsum()
    return (lo - ends + sizes).repeat(sizes) + np.arange(ends[-1] if len(ends) else 0)


def _window_starts(
    snap: Snapshot, at: np.ndarray | slice, docs: np.ndarray, opens: np.ndarray, w: int
) -> tuple[np.ndarray, np.ndarray]:
    """The window starts each position ``snap.positions[at]`` adds to its row.

    ``docs`` gives each position's document and ``opens`` the positions, by
    index or mask, that begin a row, whose positions come one after another.
    A position p of an n-token document lies in the windows starting in
    [max(0, p - w + 1), min(p, max(n - w, 0))] and adds [first, last] of
    them: last = min(p, max(n - w, 0)) and first = max(p - w + 1, previous
    last + 1), or max(p - w + 1, 0) at a row's start. A row's intervals are
    disjoint, an empty one has first = last + 1, and their sizes sum to the
    term's window count in the document. Starts are returned as places in
    the token stream (``doc_start[doc] + start``), so documents never meet.
    """
    p = snap.positions[at].astype(np.int64)
    last = np.minimum(p, np.maximum(snap.lengths[docs] - w, 0))
    first = np.empty_like(last)
    first[1:] = last[:-1]
    first[1:] += 1
    first[opens] = 0
    p -= w - 1  # in place, as the load pass holds every position
    np.maximum(first, p, out=first)
    offset = snap.doc_start[docs]
    first += offset
    last += offset
    return first, last


def load_pos_lexicon(path: str | Path) -> Callable[[str], str]:
    """A tagger from ``term<TAB>tag`` lines, ``UNKNOWN_TAG`` for unknown terms."""
    tags: dict[str, str] = {}
    for lineno, line in textfiles.lines(path):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ValueError(f"{path}: malformed lexicon line {lineno}: {line!r}")
        tags[fields[0]] = fields[1]
    return lambda term: tags.get(term, UNKNOWN_TAG)


def read_documents(path: str | Path) -> list[Document]:
    """Read a document file in TREC-style SGML or ``id<TAB>text`` lines.

    The format is sniffed from the first non-blank line: files opening a
    ``<DOC>`` element are parsed as SGML with DOCNO and TEXT fields, anything
    else is treated as one tab-separated document per line.
    """
    first = next(textfiles.lines(path), (0, ""))[1]
    if first.lstrip().startswith("<DOC>"):
        return _read_sgml(textfiles.read_text(path), str(path))
    return _read_tsv(path)


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


def _read_tsv(path: str | Path) -> list[Document]:
    docs = []
    for lineno, line in textfiles.lines(path):
        doc_id, sep, body = line.partition("\t")
        if not sep or doc_id.split() != [doc_id]:  # run files are whitespace-separated
            raise ValueError(f"{path}: malformed document line {lineno}: "
                             f"expected an id without whitespace, a tab, then the text")
        docs.append(Document(doc_id, body))
    if not docs:
        raise ValueError(f"{path}: no documents found")
    return docs


def save_index(documents: Iterable[tuple[str, list[str]]], directory: str | Path) -> dict:
    """Write documents' tokens as a snapshot: two text files, five arrays and ``index.json``.

    ``documents`` yields ``(doc_id, tokens)`` pairs, read once; a repeated
    document id raises ValueError before any file is written. Document d is
    line d of ``doc_ids.txt`` (the order given) and term t line t of
    ``terms.txt`` (ascending). The int32 ``.npy`` arrays hold counts:
    ``lengths`` (tokens per document), ``dfs`` (rows per term) and, per row
    (a term and a document holding it, documents ascending within a term),
    ``row_docs`` and ``tfs`` (the row's position count), then
    ``positions`` (each row's ascending positions). Repeated runs over the
    same corpus write byte-identical snapshots. No window is stored: readers
    count windows of the size they are given. Each file is written beside
    its target and renamed over it, the manifest ``index.json`` last, which
    records the data files' sizes and their sha256 ``fingerprint``; then the
    data files of older formats, if any, are removed. Returns the manifest.
    """
    doc_len: dict[str, int] = {}
    term_of: dict[str, int] = {}  # first-seen numbering; terms are sorted below
    stream = array("i")
    for doc_id, tokens in documents:
        if doc_id in doc_len:
            raise ValueError(f"duplicate document identifier: {doc_id!r}")
        doc_len[doc_id] = len(tokens)
        stream.extend([term_of.setdefault(term, len(term_of)) for term in tokens])
    terms = sorted(term_of)
    rank = np.empty(len(terms), dtype=np.int64)
    rank[[term_of[term] for term in terms]] = np.arange(len(terms))
    lens = np.fromiter(doc_len.values(), dtype=np.intc, count=len(doc_len))
    starts = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
    # Tokens arrive by document, then position; a stable sort by term keeps that order.
    tokens = rank[np.frombuffer(stream, dtype=np.intc)]
    order = np.argsort(tokens, kind="stable")
    token_terms = tokens[order]
    token_docs = np.repeat(np.arange(len(doc_len)), lens)[order]
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = (token_terms[1:] != token_terms[:-1]) | (token_docs[1:] != token_docs[:-1])
    rows = np.flatnonzero(opens)
    arrays = {
        "lengths": lens,
        "dfs": np.bincount(token_terms[rows], minlength=len(terms)),
        "row_docs": token_docs[rows],
        "tfs": np.diff(rows, append=len(order)),
        "positions": order - starts[token_docs],
    }
    data = {"doc_ids.txt": _text_lines(doc_len), "terms.txt": _text_lines(terms)}
    for name, values in arrays.items():
        data[f"{name}.npy"] = _npy_bytes(values)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fingerprint = hashlib.sha256()
    for name in _DATA_FILES:
        with textfiles.replacing(directory / name, "wb") as handle:
            handle.write(data[name])
        fingerprint.update(data[name])
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "snapshot",
        "num_docs": len(doc_len),
        "total_tokens": int(starts[-1]),
        "vocabulary_size": len(terms),
        "tokenizer": {"lowercase": True, "token_pattern": _TOKEN_RE.pattern},
        "file_bytes": {name: len(data[name]) for name in _DATA_FILES},
        "fingerprint": fingerprint.hexdigest(),
    }
    with textfiles.replacing(directory / "index.json") as handle:
        handle.write(json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n")
    for stale in _STALE_FILES:
        (directory / stale).unlink(missing_ok=True)
    return manifest


def load_index(directory: str | Path) -> CollectionIndex:
    """Read a snapshot's index; a term frequency is the term's position count."""
    return read_snapshot(directory).collection_index()


def load_cooccurrence(
    directory: str | Path, window_size: int = ExperimentConfig.context_window
) -> CooccurrenceTable:
    """Read a snapshot's positions into a table of ``window_size``-token windows."""
    return read_snapshot(directory).cooccurrence(window_size)


def _text_lines(items: Iterable[str]) -> bytes:
    return "".join(f"{item}\n" for item in items).encode("utf-8")


def _npy_bytes(values: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.asarray(values, dtype=_INT32), allow_pickle=False)
    return buffer.getvalue()


class Snapshot(NamedTuple):
    """A checked snapshot: its files, and the offsets derived from their counts.

    Term t's rows are ``term_ptr[t]:term_ptr[t + 1]``, row r's positions
    ``positions[row_ptr[r]:row_ptr[r + 1]]``, and document d's tokens
    ``doc_start[d]:doc_start[d + 1]`` of the collection's token stream; the
    offsets are int64. Made only by ``read_snapshot``; one read builds both
    tables.
    """

    manifest: dict
    doc_ids: list[str]
    terms: list[str]
    lengths: np.ndarray
    row_docs: np.ndarray
    tfs: np.ndarray
    positions: np.ndarray
    term_ptr: np.ndarray
    row_ptr: np.ndarray
    doc_start: np.ndarray

    def collection_index(self) -> CollectionIndex:
        """The array index; a term frequency is the term's position count."""
        return CollectionIndex(self.doc_ids, self.lengths, self.terms, self.term_ptr,
                               self.row_docs, self.tfs, self.manifest["fingerprint"])

    def cooccurrence(
        self, window_size: int = ExperimentConfig.context_window
    ) -> CooccurrenceTable:
        """The table of ``window_size``-token windows over these positions.

        Every window count is derived from the lengths and positions, so one
        snapshot serves any window.
        """
        return CooccurrenceTable(self, window_size)


def read_snapshot(directory: str | Path) -> Snapshot:
    """Read every file of a snapshot and check it; a defect raises ValueError naming the file.

    Besides each file's size, type and length: counts are at least 1,
    document ids unique, non-empty and free of whitespace, terms non-empty
    and strictly ascending, a term's documents in range and strictly
    ascending, a row's positions strictly ascending from 0 and below its
    document's length, and every position of every document held by
    exactly one row, so each document's term frequencies sum to its length.
    """
    directory = Path(directory)
    path = directory / "index.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: not a snapshot manifest")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version!r}, this program "
                         f"reads version {FORMAT_VERSION}; re-run `affixgen index`")
    if manifest.get("kind") != "snapshot" or not isinstance(manifest.get("fingerprint"), str):
        raise ValueError(f"{path}: not a snapshot manifest")
    for key, kind in (("file_bytes", dict), ("num_docs", int), ("total_tokens", int),
                      ("vocabulary_size", int)):
        if not isinstance(manifest.get(key), kind):
            raise ValueError(f"{path}: manifest field {key!r} is missing or of the wrong type")
    for name in _DATA_FILES:
        size, actual = manifest["file_bytes"].get(name), (directory / name).stat().st_size
        if actual != size:
            raise ValueError(f"{directory / name}: size mismatch against manifest: "
                             f"{actual} bytes, recorded {size}")

    path = directory / "doc_ids.txt"
    doc_ids = _read_lines(path)
    if " ".join(doc_ids).split() != doc_ids:  # run files are whitespace-separated
        line = next(i for i, doc_id in enumerate(doc_ids) if doc_id.split() != [doc_id])
        raise ValueError(f"{path}: line {line + 1}: document id {doc_ids[line]!r} is empty "
                         f"or holds whitespace")
    if len(set(doc_ids)) != len(doc_ids):
        first: dict[str, int] = {}
        line = next(i for i, doc_id in enumerate(doc_ids) if first.setdefault(doc_id, i) != i)
        raise ValueError(f"{path}: line {line + 1}: document id {doc_ids[line]!r} repeats "
                         f"line {first[doc_ids[line]] + 1}")
    path = directory / "terms.txt"
    terms = _read_lines(path)
    # Ascending and distinct is strictly ascending, and then only the first can be empty.
    if terms != sorted(terms) or len(set(terms)) != len(terms) or terms[:1] == [""]:
        line = next(i for i, term in enumerate(terms) if not term or (i and term <= terms[i - 1]))
        raise ValueError(f"{path}: line {line + 1}: term {terms[line]!r} is empty or does "
                         f"not come after the previous term; terms must strictly ascend")

    lengths = _read_array(directory, "lengths", len(doc_ids))
    _check_at_least(directory, "lengths", lengths, 0)
    doc_start = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    _check_count(directory, manifest, "num_docs", len(doc_ids))
    _check_count(directory, manifest, "total_tokens", int(doc_start[-1]))
    _check_count(directory, manifest, "vocabulary_size", len(terms))

    dfs = _read_array(directory, "dfs", len(terms))
    _check_at_least(directory, "dfs", dfs, 1)
    term_ptr = np.concatenate(([0], np.cumsum(dfs, dtype=np.int64)))
    row_docs = _read_array(directory, "row_docs", int(term_ptr[-1]))
    tfs = _read_array(directory, "tfs", int(term_ptr[-1]))
    _check_at_least(directory, "tfs", tfs, 1)
    row_ptr = np.concatenate(([0], np.cumsum(tfs, dtype=np.int64)))
    positions = _read_array(directory, "positions", int(row_ptr[-1]))

    def row_error(name: str, row: int, message: str) -> ValueError:
        term = terms[np.searchsorted(term_ptr, row, side="right") - 1]
        return ValueError(f"{directory / name}: row {row} (term {term!r}, document "
                          f"{row_docs[row]}): {message}")

    outside = (row_docs < 0) | (row_docs >= len(doc_ids))
    if outside.any():
        row = int(outside.argmax())
        raise row_error("row_docs.npy", row, f"document number is not a line of doc_ids.txt "
                                             f"(0 to {len(doc_ids) - 1})")
    continues = np.ones(len(row_docs), dtype=bool)  # the row's term is the previous row's
    continues[term_ptr[:-1]] = False
    descends = continues[1:] & (row_docs[1:] <= row_docs[:-1])
    if descends.any():
        row = int(descends.argmax()) + 1
        raise row_error("row_docs.npy", row, f"does not ascend within the term, after "
                                             f"document {row_docs[row - 1]}")
    continues = np.ones(len(positions), dtype=bool)  # the position's row is the previous one's
    continues[row_ptr[:-1]] = False
    position_doc = np.repeat(row_docs, tfs)
    bad = (positions < 0) | (positions >= lengths[position_doc])
    bad[1:] |= continues[1:] & (positions[1:] <= positions[:-1])
    if bad.any():
        row = np.searchsorted(row_ptr, bad.argmax(), side="right") - 1
        held = positions[row_ptr[row]:row_ptr[row + 1]].tolist()
        raise row_error("positions.npy", row, f"positions {held} are not strictly ascending "
                                              f"from 0 and below the document's length "
                                              f"{lengths[row_docs[row]]}")
    holders = np.bincount(doc_start[position_doc] + positions, minlength=int(doc_start[-1]))
    if (holders != 1).any():
        token = int((holders != 1).argmax())
        doc = int(np.searchsorted(doc_start, token, side="right")) - 1
        raise ValueError(f"{directory / 'positions.npy'}: position {token - doc_start[doc]} "
                         f"of document {doc} is held by {holders[token]} rows, not one")
    return Snapshot(manifest, doc_ids, terms, lengths, row_docs, tfs, positions,
                    term_ptr, row_ptr, doc_start)


def _read_lines(path: Path) -> list[str]:
    """The UTF-8 lines of ``path``, each ended by a newline."""
    try:
        lines = path.read_bytes().decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if lines.pop():
        raise ValueError(f"{path}: line {len(lines) + 1} does not end with a newline")
    return lines


def _read_array(directory: Path, name: str, length: int) -> np.ndarray:
    """The one-dimensional int32 array of ``length`` values in ``name.npy``."""
    path = directory / f"{name}.npy"
    try:
        with open(path, "rb") as handle:
            values = np.load(handle, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path}: not a readable .npy array: {exc}") from None
    if not isinstance(values, np.ndarray):
        raise ValueError(f"{path}: holds an archive, not one array")
    if values.dtype != _INT32 or values.ndim != 1 or len(values) != length:
        raise ValueError(f"{path}: expected {length} little-endian int32 values in one "
                         f"dimension, found {values.dtype} of shape {values.shape}")
    return values


def _check_at_least(directory: Path, name: str, values: np.ndarray, least: int) -> None:
    if len(values) and values.min() < least:
        at = int(values.argmin())
        raise ValueError(f"{directory / name}.npy: value {values[at]} at index {at} is below "
                         f"{least}")


def _check_count(directory: Path, manifest: dict, key: str, value: int) -> None:
    if value != manifest[key]:
        raise ValueError(f"{directory}: {key} mismatch against manifest: "
                         f"read {value}, recorded {manifest[key]}")

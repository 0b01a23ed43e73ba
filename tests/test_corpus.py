"""Tokenizer, index statistics, co-occurrence windows, and snapshots."""

import hashlib
import io
import json
import pickle
import random
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from affixgen import corpus
from affixgen.config import ExperimentConfig
from affixgen.corpus import (
    FORMAT_VERSION,
    Document,
    load_cooccurrence,
    load_index,
    load_pos_lexicon,
    load_stopwords,
    read_documents,
    save_index,
    tokenize,
)
from oracles import index_bruteforce, window_cooccurrence_bruteforce
from tables import cooc_of, index_of, token_stream


def assert_counts_match_bruteforce(table, docs, vocab):
    pairs, unigram, total = window_cooccurrence_bruteforce(
        [tokenize(doc.text) for doc in docs], table.window_size
    )
    assert table.total_windows == total
    assert dict(table.unigram_window_count) == dict(unigram)
    for a in vocab:
        for b in vocab:
            expected = 0 if a == b else pairs[min(a, b), max(a, b)]
            assert table.pair_count(a, b) == expected
            assert table.pair_count(b, a) == expected


class TestTokenize:
    def test_splits_on_non_letters_and_lowercases(self):
        assert tokenize("The CAT, sat-down 42 times!") == [
            "the", "cat", "sat", "down", "times",
        ]

    def test_digits_and_underscores_separate(self):
        assert tokenize("ab1cd ef_gh") == ["ab", "cd", "ef", "gh"]

    def test_stopwords_removed_order_kept(self):
        stop = frozenset({"the", "a"})
        assert tokenize("the cat a dog the", stop) == ["cat", "dog"]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("123 !!!") == []

    def test_unicode_letters_survive(self):
        assert tokenize("naïve café") == ["naïve", "café"]

    def test_stopword_file_normalized(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("The\nAND\n\n", encoding="utf-8")
        stop = load_stopwords(path)
        assert tokenize("the and cat", stop) == ["cat"]


class TestCollectionIndex:
    def test_small_example(self):
        docs = [Document("d1", "apple banana apple"), Document("d2", "banana cherry")]
        index = index_of(docs)
        assert index.num_docs == 2
        assert index.total_tokens == 5
        assert index.tf("apple", "d1") == 2
        assert index.tf("apple", "d2") == 0
        assert index.df("banana") == 2
        assert index.cf("banana") == 2
        assert index.doc_len["d2"] == 2
        assert index.vocabulary == {"apple", "banana", "cherry"}

    def test_statistics_consistent_on_random_corpora(self):
        rng = random.Random(42)
        vocab = ["w" + chr(ord("a") + i) for i in range(26)]
        for _ in range(20):
            docs = [
                Document(f"d{d}", " ".join(rng.choices(vocab, k=rng.randint(0, 40))))
                for d in range(rng.randint(1, 15))
            ]
            index = index_of(docs)
            postings, doc_len, collection_freq = index_bruteforce(token_stream(docs))
            assert (index.postings, index.doc_len, {t: index.cf(t) for t in index.terms}) == (
                postings, doc_len, collection_freq)
            assert sum(index.doc_len.values()) == index.total_tokens
            for term in index.vocabulary:
                assert index.cf(term) == sum(index.postings[term].values())
                assert index.df(term) == len(index.postings[term])
                assert index.cf(term) >= index.df(term) >= 1

    def test_accessors_and_arrays_match_bruteforce(self):
        # Ids out of string order, empty documents, absent terms and ids; the
        # last collection is large enough for numpy to sort it by quicksort.
        rng = random.Random(43)
        for size in [*(rng.randint(1, 12) for _ in range(30)), 400]:
            numbers = rng.sample(range(2 * size), size)
            docs = [Document(f"d{n}", " ".join(rng.choices("abcdefgh", k=rng.randint(0, 15))))
                    for n in numbers]
            index = index_of(docs)
            postings, doc_len, collection_freq = index_bruteforce(token_stream(docs))
            assert dict(index.postings) == postings
            assert list(index.postings) == sorted(postings)
            for term in "abcdefghz":
                assert index.df(term) == len(postings.get(term, {}))
                assert index.cf(term) == collection_freq[term]
                assert (term in index.postings) == (term in postings)
                for doc_id in [*doc_len, "nowhere"]:
                    assert index.tf(term, doc_id) == postings.get(term, {}).get(doc_id, 0)
            # The forward slices hold the same (document, term, tf) triples.
            forward = {(index.doc_ids[d], index.terms[t], tf)
                       for d in range(index.num_docs)
                       for t, tf in zip(index.doc_terms[index.doc_ptr[d]:index.doc_ptr[d + 1]],
                                        index.doc_tfs[index.doc_ptr[d]:index.doc_ptr[d + 1]])}
            assert forward == {(doc_id, term, tf) for term, plist in postings.items()
                               for doc_id, tf in plist.items()}
            for d in range(index.num_docs):  # each document's terms ascend
                assert np.all(np.diff(index.doc_terms[index.doc_ptr[d]:index.doc_ptr[d + 1]]) > 0)
            assert sorted(range(index.num_docs), key=index.id_rank.__getitem__) == sorted(
                range(index.num_docs), key=index.doc_ids.__getitem__)
            with pytest.raises(KeyError):
                index.postings["z"]


class TestCooccurrence:
    def test_short_doc_single_truncated_window(self):
        table = cooc_of([Document("d", "a b")], 10)
        assert table.total_windows == 1
        assert table.pair_count("a", "b") == 1
        assert table.pair_count("b", "a") == 1

    def test_sliding_step_one(self):
        table = cooc_of([Document("d", "a b c")], 2)
        assert table.total_windows == 2
        assert table.pair_count("a", "b") == 1
        assert table.pair_count("b", "c") == 1
        assert table.pair_count("a", "c") == 0

    def test_self_pairs_excluded(self):
        table = cooc_of([Document("d", "a a")], 2)
        assert table.pair_count("a", "a") == 0
        assert table.unigram_window_count["a"] == 1
        assert table.total_windows == 1

    def test_windows_never_cross_documents(self):
        table = cooc_of([Document("1", "a"), Document("2", "b")], 10)
        assert table.pair_count("a", "b") == 0
        assert table.total_windows == 2

    def test_pair_counted_once_per_window(self):
        # Repeats within one window still count the distinct pair once.
        table = cooc_of([Document("d", "a b a b")], 4)
        assert table.pair_count("a", "b") == 1

    def test_pair_counts_hand_values(self):
        # Several query terms in one document, a term listed twice and one
        # outside the vocabulary; a term never pairs with itself.
        table = cooc_of([Document("d", "a b c a"), Document("e", "b")], 3)
        assert table.pair_counts(["a", "b", "c", "z", "a"]).tolist() == [
            [0, 2, 2, 0, 0],
            [2, 0, 2, 0, 2],
            [2, 2, 0, 0, 2],
            [0, 0, 0, 0, 0],
            [0, 2, 2, 0, 0],
        ]
        assert table.pair_counts([]).shape == (0, 0)
        assert table.pair_counts(["z", "y"]).tolist() == [[0, 0], [0, 0]]

    def test_invalid_window_size(self):
        with pytest.raises(ValueError, match="window_size"):
            cooc_of([["a", "b"]], 0)

    def test_matches_bruteforce_recount(self):
        rng = random.Random(7)
        vocab = ["t" + chr(ord("a") + i) for i in range(12)]
        for trial in range(25):
            token_docs = [
                rng.choices(vocab, k=rng.randint(0, 25))
                for _ in range(rng.randint(1, 8))
            ]
            window = rng.randint(1, 12)
            docs = [Document(f"d{i}", " ".join(t)) for i, t in enumerate(token_docs)]
            table = cooc_of(docs, window)
            assert_counts_match_bruteforce(table, docs, vocab)
            for a in vocab:
                for b in vocab:
                    assert table.pair_count(a, b) == table.pair_count(b, a)
                    if a != b:
                        assert table.pair_count(a, b) <= min(
                            table.unigram_window_count.get(a, 0),
                            table.unigram_window_count.get(b, 0),
                        )

    def test_window_counts_match_bruteforce_at_windows_1_3_10(self):
        # Empty documents, documents shorter than the window, and a term that
        # opens and one that closes every non-empty document. The pair counts
        # are asked for terms outside the vocabulary and a term listed twice.
        rng, pick = random.Random(31), random.Random(41)
        for _ in range(40):
            token_docs = []
            for _ in range(rng.randint(1, 8)):
                n = rng.choice([0, 0, 1, 2, rng.randint(3, 30)])
                tokens = rng.choices("abcdef", k=n)
                if n:
                    tokens[0], tokens[-1] = "first", "last"
                token_docs.append(tokens)
            terms = pick.sample([*"abcdefxy", "first", "last"], pick.randint(0, 10))
            terms += pick.choices(terms, k=2) if terms else []
            for window in (1, 3, 10):
                table = cooc_of(token_docs, window)
                pairs, unigram, total = window_cooccurrence_bruteforce(token_docs, window)
                assert table.total_windows == total
                assert table.unigram_window_count == unigram
                assert all(type(c) is int for c in table.unigram_window_count.values())
                counts = table.pair_counts(terms)
                assert counts.dtype == np.int64
                assert counts.tolist() == [
                    [0 if a == b else pairs[min(a, b), max(a, b)] for b in terms] for a in terms]


class TestPosLexicon:
    def test_load_and_fallback(self, tmp_path):
        path = tmp_path / "pos.tsv"
        path.write_text("cat\tN\nrun\tV\n\n", encoding="utf-8")
        tagger = load_pos_lexicon(path)
        assert tagger("cat") == "N"
        assert tagger("dog") == "UNK"

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "pos.tsv"
        path.write_text("cat\tN\nbroken line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_pos_lexicon(path)

    def test_empty_file_means_all_unknown(self, tmp_path):
        path = tmp_path / "pos.tsv"
        path.write_text("", encoding="utf-8")
        assert load_pos_lexicon(path)("anything") == "UNK"


class TestDocumentReaders:
    def test_tsv_lines(self, tmp_path):
        path = tmp_path / "docs.tsv"
        path.write_text("d1\thello world\nd2\tsecond doc\n", encoding="utf-8")
        docs = read_documents(path)
        assert docs == [Document("d1", "hello world"), Document("d2", "second doc")]

    def test_sgml_blocks(self, tmp_path):
        path = tmp_path / "docs.sgml"
        path.write_text(
            "<DOC>\n<DOCNO> d1 </DOCNO>\n<TEXT>first text</TEXT>\n</DOC>\n"
            "<DOC><DOCNO>d2</DOCNO><TEXT>part one</TEXT><TEXT>part two</TEXT></DOC>\n",
            encoding="utf-8",
        )
        docs = read_documents(path)
        assert docs[0] == Document("d1", "first text")
        assert docs[1].doc_id == "d2"
        assert "part one" in docs[1].text and "part two" in docs[1].text

    def test_sgml_without_docno_fails(self, tmp_path):
        path = tmp_path / "docs.sgml"
        path.write_text("<DOC><TEXT>x</TEXT></DOC>", encoding="utf-8")
        with pytest.raises(ValueError, match="DOCNO"):
            read_documents(path)

    @pytest.mark.parametrize("line", ["doc 1\tkala talo", " \tkala", "d1 \tkala"])
    def test_tsv_id_with_whitespace_rejected(self, tmp_path, line):
        path = tmp_path / "docs.tsv"
        path.write_text(f"d0\ttalo\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_documents(path)

    @pytest.mark.parametrize("docno", ["doc 1", " ", "d\t1"])
    def test_sgml_docno_empty_or_with_whitespace_rejected(self, tmp_path, docno):
        path = tmp_path / "docs.sgml"
        path.write_text(
            "<DOC><DOCNO>d0</DOCNO><TEXT>talo</TEXT></DOC>\n"
            f"<DOC><DOCNO>{docno}</DOCNO><TEXT>kala</TEXT></DOC>\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="DOCNO"):
            read_documents(path)

    def test_malformed_tsv_fails(self, tmp_path):
        path = tmp_path / "docs.tsv"
        path.write_text("no tab here\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            read_documents(path)


def save_snapshot(docs, directory):
    return save_index(token_stream(docs), directory)


def snapshot_bytes(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def rewrite(directory, name, data):
    """Replace a data file, recording its new size so that only the content is wrong."""
    (directory / name).write_bytes(data)
    manifest = json.loads((directory / "index.json").read_text(encoding="utf-8"))
    manifest["file_bytes"][name] = len(data)
    (directory / "index.json").write_text(json.dumps(manifest), encoding="utf-8")


def npy_bytes(values, **kwargs):
    buffer = io.BytesIO()
    np.save(buffer, values, **kwargs)
    return buffer.getvalue()


def npz_bytes(values):
    buffer = io.BytesIO()
    np.savez(buffer, values=values)
    return buffer.getvalue()


def read_arrays(directory):
    return {name: np.load(directory / f"{name}.npy")
            for name in ("lengths", "dfs", "row_docs", "tfs", "positions")}


def rewrite_arrays(directory, **arrays):
    """Replace int32 arrays, recording their new sizes."""
    for name, values in arrays.items():
        rewrite(directory, f"{name}.npy", npy_bytes(np.asarray(values, dtype="<i4")))


def write_version_2_snapshot(directory):
    """The five files of a two-token version-2 snapshot."""
    index = {"format_version": 2, "kind": "collection_index", "num_docs": 1,
             "total_tokens": 2, "vocabulary_size": 2, "tokenizer": {}}
    cooc = {"format_version": 2, "kind": "cooccurrence", "total_windows": 1,
            "window_size": 10}
    (directory / "index.json").write_text(json.dumps(index), encoding="utf-8")
    (directory / "cooccurrence.json").write_text(json.dumps(cooc), encoding="utf-8")
    (directory / "postings.tsv").write_text("a\td1\t1\nb\td1\t1\n", encoding="utf-8")
    write_version_4_data(directory)


def write_version_4_data(directory):
    """The two data files of a two-token version-4 snapshot; returns its manifest."""
    (directory / "doc_lens.tsv").write_text("d1\t2\n", encoding="utf-8")
    (directory / "positions.tsv").write_text("a\t0\t0\nb\t0\t1\n", encoding="utf-8")
    return {"format_version": 4, "kind": "snapshot", "num_docs": 1, "total_tokens": 2,
            "vocabulary_size": 2, "tokenizer": {},
            "file_bytes": {"doc_lens.tsv": 5, "positions.tsv": 12}}


SNAPSHOT_FILES = {"index.json", "doc_ids.txt", "terms.txt", "lengths.npy", "dfs.npy",
                  "row_docs.npy", "tfs.npy", "positions.npy"}


def reject(directory, name, message):
    """Both loaders refuse the snapshot with a message naming the file ``name``."""
    for load in (load_index, load_cooccurrence):
        with pytest.raises(ValueError, match=re.escape(f"{directory / name}: {message}")):
            load(directory)


class TestSnapshots:
    DOCS = [Document("d1", "a b c d e f a"), Document("d0", ""), Document("d2", "b c b")]

    def test_snapshot_files_hold_counts(self, tmp_path):
        manifest = save_snapshot(self.DOCS, tmp_path)
        assert {p.name for p in tmp_path.iterdir()} == SNAPSHOT_FILES
        assert (tmp_path / "doc_ids.txt").read_bytes() == b"d1\nd0\nd2\n"
        assert (tmp_path / "terms.txt").read_bytes() == b"a\nb\nc\nd\ne\nf\n"
        arrays = read_arrays(tmp_path)
        assert {values.dtype.str for values in arrays.values()} == {"<i4"}
        # Rows: a 0, b 0, b 2, c 0, c 2, d 0, e 0, f 0.
        assert {name: values.tolist() for name, values in arrays.items()} == {
            "lengths": [7, 0, 3], "dfs": [1, 2, 2, 1, 1, 1],
            "row_docs": [0, 0, 2, 0, 2, 0, 0, 0], "tfs": [2, 1, 2, 1, 1, 1, 1, 1],
            "positions": [0, 6, 1, 0, 2, 2, 1, 3, 4, 5]}
        names = ["doc_ids.txt", "terms.txt", "lengths.npy", "dfs.npy", "row_docs.npy",
                 "tfs.npy", "positions.npy"]
        data = [(tmp_path / name).read_bytes() for name in names]
        assert manifest["file_bytes"] == {name: len(d) for name, d in zip(names, data)}
        assert manifest["fingerprint"] == hashlib.sha256(b"".join(data)).hexdigest()
        assert json.loads((tmp_path / "index.json").read_text(encoding="utf-8")) == manifest
        assert load_index(tmp_path).fingerprint == manifest["fingerprint"]

    def test_index_round_trip_and_reproducibility(self, tmp_path):
        postings, doc_len, collection_freq = index_bruteforce(token_stream(self.DOCS))
        manifest = save_snapshot(self.DOCS, tmp_path / "snap")
        assert (manifest["num_docs"], manifest["total_tokens"], manifest["vocabulary_size"]) == (
            3, 10, 6)
        loaded = load_index(tmp_path / "snap")
        assert loaded.postings == postings
        assert loaded.doc_len == doc_len
        assert list(loaded.doc_len) == ["d1", "d0", "d2"]
        assert {t: loaded.cf(t) for t in loaded.terms} == collection_freq
        assert loaded.total_tokens == sum(doc_len.values()) == 10

        # The same documents give the same bytes, written afresh or over a snapshot.
        first = snapshot_bytes(tmp_path / "snap")
        save_snapshot(self.DOCS, tmp_path / "snap")
        save_snapshot(self.DOCS, tmp_path / "again")
        assert snapshot_bytes(tmp_path / "snap") == snapshot_bytes(tmp_path / "again") == first

    def test_cooccurrence_round_trip(self, tmp_path):
        save_snapshot(self.DOCS, tmp_path)
        loaded = load_cooccurrence(tmp_path, 3)
        assert loaded.window_size == 3
        # Documents are numbered by their line in doc_ids.txt: d1, d0, d2.
        assert loaded.snapshot.lengths.tolist() == [7, 0, 3]
        assert loaded.snapshot.terms == list("abcdef")
        assert loaded.total_windows == 6
        assert_counts_match_bruteforce(loaded, self.DOCS, "abcdefg")

    def test_one_snapshot_serves_every_window(self, tmp_path):
        rng = random.Random(11)
        docs = self.DOCS + [
            Document(f"r{i}", " ".join(rng.choices("abcdefgh", k=rng.randint(0, 30))))
            for i in range(8)
        ]
        save_snapshot(docs, tmp_path)
        manifest = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
        assert "window_size" not in manifest and "total_windows" not in manifest
        for window in (1, 3, 10):
            loaded = load_cooccurrence(tmp_path, window)
            assert loaded.window_size == window
            assert_counts_match_bruteforce(loaded, docs, "abcdefgh")
        assert load_cooccurrence(tmp_path).window_size == ExperimentConfig().context_window

    def test_collection_of_empty_documents(self, tmp_path, monkeypatch):
        manifest = save_snapshot([Document("d0", ""), Document("d1", "42 !")], tmp_path)
        assert (manifest["num_docs"], manifest["total_tokens"], manifest["vocabulary_size"]) == (
            2, 0, 0)
        index = load_index(tmp_path)
        assert (index.num_docs, index.total_tokens, index.vocabulary) == (2, 0, set())
        assert dict(index.doc_len) == {"d0": 0, "d1": 0}

        class NoReduceat:  # numpy, except that np.add.reduceat fails the test
            add = SimpleNamespace(reduceat=lambda *args: pytest.fail("reduceat called"))

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(corpus, "np", NoReduceat())
        table = load_cooccurrence(tmp_path, 3)
        assert (table.total_windows, table.unigram_window_count) == (0, Counter())
        assert table.snapshot.lengths.tolist() == [0, 0]
        assert table.pair_counts(["a", "b"]).tolist() == [[0, 0], [0, 0]]
        assert table.pair_count("a", "b") == 0

    def test_duplicate_document_id_writes_nothing(self, tmp_path):
        docs = self.DOCS + [Document("d0", "a b")]
        with pytest.raises(ValueError, match="duplicate document identifier: 'd0'"):
            save_snapshot(docs, tmp_path / "snap")
        assert not (tmp_path / "snap").exists()

    def test_version_2_snapshot_refused(self, tmp_path):
        write_version_2_snapshot(tmp_path)
        for load in (load_index, load_cooccurrence):
            with pytest.raises(ValueError, match="unsupported format version 2"):
                load(tmp_path)

        # A version-3 manifest recorded the window it was indexed with.
        save_snapshot(self.DOCS, tmp_path)
        path = tmp_path / "index.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["format_version"] == FORMAT_VERSION == 5
        manifest.update(format_version=3, window_size=10, total_windows=6)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        for load in (load_index, load_cooccurrence):
            with pytest.raises(ValueError, match="unsupported format version 3"):
                load(tmp_path)

        # A version-4 snapshot (text data files) names its version and the fix.
        path.write_text(json.dumps(write_version_4_data(tmp_path)), encoding="utf-8")
        for load in (load_index, load_cooccurrence):
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: unsupported format version 4, this program reads version 5; "
                    f"re-run `affixgen index`")):
                load(tmp_path)

    def test_saving_over_a_version_2_snapshot_removes_its_files(self, tmp_path):
        (tmp_path / "v2").mkdir()
        (tmp_path / "v4").mkdir()
        write_version_2_snapshot(tmp_path / "v2")
        manifest = write_version_4_data(tmp_path / "v4")
        (tmp_path / "v4" / "index.json").write_text(json.dumps(manifest), encoding="utf-8")
        for directory in (tmp_path / "v2", tmp_path / "v4"):
            save_snapshot(self.DOCS, directory)
            assert {p.name for p in directory.iterdir()} == SNAPSHOT_FILES
            assert load_cooccurrence(directory).snapshot.lengths.tolist() == [7, 0, 3]

    @pytest.mark.parametrize(
        "key, load",
        [
            ("num_docs", load_index),
            ("num_docs", load_cooccurrence),
            ("total_tokens", load_index),
            ("total_tokens", load_cooccurrence),
            ("vocabulary_size", load_index),
            ("vocabulary_size", load_cooccurrence),
        ],
    )
    def test_manifest_count_checked(self, tmp_path, key, load):
        save_snapshot(self.DOCS, tmp_path)
        path = tmp_path / "index.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[key] += 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=f"{tmp_path}.*{key} mismatch"):
            load(tmp_path)

    @pytest.mark.parametrize("key", ["file_bytes", "num_docs", "total_tokens",
                                     "vocabulary_size"])
    def test_manifest_field_missing_or_mistyped(self, tmp_path, key):
        save_snapshot(self.DOCS, tmp_path)
        path = tmp_path / "index.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for value in (None, [1, 2], "3"):
            if value is None:
                del manifest[key]
            else:
                manifest[key] = value
            path.write_text(json.dumps(manifest), encoding="utf-8")
            reject(tmp_path, "index.json", f"manifest field {key!r} is missing or of the "
                                           f"wrong type")

    def test_manifest_not_an_object(self, tmp_path):
        save_snapshot(self.DOCS, tmp_path)
        (tmp_path / "index.json").write_text("[1, 2]", encoding="utf-8")
        reject(tmp_path, "index.json", "not a snapshot manifest")

    def test_manifest_mismatch_detected(self, tmp_path):
        save_snapshot([Document("d1", "a b")], tmp_path)
        (tmp_path / "doc_ids.txt").write_text("d1\nd9\n", encoding="utf-8")
        reject(tmp_path, "doc_ids.txt", "size mismatch against manifest: 6 bytes, recorded 3")

    def test_appended_line_fails_size_check(self, tmp_path):
        save_snapshot([Document("d1", "a b")], tmp_path)
        with open(tmp_path / "terms.txt", "a", encoding="utf-8") as handle:
            handle.write("c\n")
        reject(tmp_path, "terms.txt", "size mismatch against manifest: 6 bytes, recorded 4")

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"d1\nd 0\nd2\n", "line 2: document id 'd 0' is empty or holds whitespace"),
            (b"d1\n\nd2\n", "line 2: document id '' is empty or holds whitespace"),
            (b"d1\nd2\nd2\n", "line 3: document id 'd2' repeats line 2"),
            (b"d1\nd0\nd2", "line 3 does not end with a newline"),
            (b"d1\n\xff\nd2\n", "not UTF-8 text"),
        ],
        ids=["whitespace", "empty", "repeated", "no-final-newline", "not-utf8"],
    )
    def test_malformed_id_line_reported(self, tmp_path, text, message):
        save_snapshot(self.DOCS, tmp_path)
        rewrite(tmp_path, "doc_ids.txt", text)
        reject(tmp_path, "doc_ids.txt", message)

    def test_malformed_doc_lens_line_reported(self, tmp_path):
        """A document whose length is missing, extra or not a count is reported.

        The lengths that doc_lens.tsv held beside each id are lengths.npy, one
        value per line of doc_ids.txt.
        """
        for lengths, message in [
            ([7, 0], "expected 3 little-endian int32 values in one dimension, found int32 "
                     "of shape (2,)"),
            ([7, 0, 3, 0], "expected 3 little-endian int32 values in one dimension, found "
                           "int32 of shape (4,)"),
            ([7, -1, 3], "value -1 at index 1 is below 0"),
        ]:
            save_snapshot(self.DOCS, tmp_path)
            rewrite_arrays(tmp_path, lengths=lengths)
            reject(tmp_path, "lengths.npy", message)

    @pytest.mark.parametrize(
        "change, name, message",
        [
            # The positions of row 0, term "a" in document 0, are [0, 6].
            ({"positions": [6, 0]}, "positions.npy", "positions [6, 0] are"),
            ({"positions": [0, 0, 6], "tfs": 3}, "positions.npy", "positions [0, 0, 6] are"),
            ({"positions": [0, 6, 6], "tfs": 3}, "positions.npy", "positions [0, 6, 6] are"),
            ({"positions": [-1, 6]}, "positions.npy", "positions [-1, 6] are"),
            ({"positions": [-1], "tfs": 1}, "positions.npy", "positions [-1] are"),
        ],
        ids=["6,0", "0,0,6", "0,6,6", "-1,6", "-1"],
    )
    def test_positions_not_strictly_ascending_rejected(self, tmp_path, change, name, message):
        save_snapshot(self.DOCS, tmp_path)
        arrays = read_arrays(tmp_path)
        arrays["positions"] = np.concatenate((change["positions"], arrays["positions"][2:]))
        arrays["tfs"][0] = change.get("tfs", 2)
        rewrite_arrays(tmp_path, **arrays)
        reject(tmp_path, name, f"row 0 (term 'a', document 0): {message} not strictly "
                               f"ascending from 0 and below the document's length 7")

    @pytest.mark.parametrize(
        "positions",
        ["x,y", "0,\u0666", "0_6", " 6", "+6", "0,,6", ",6", "0,", "", "0, 6", "6\u00b2"],
        ids=["letters", "arabic-indic-digit", "underscore", "leading-space", "plus-sign",
             "empty-item", "leading-comma", "trailing-comma", "empty", "space-after-comma",
             "superscript"],
    )
    def test_non_canonical_position_text_rejected(self, tmp_path, positions):
        """Positions written as text are refused, however int() would read that text.

        Neither the bare text nor a .npy array of it is an int32 array.
        """
        save_snapshot(self.DOCS, tmp_path)
        # The ten positions as strings, the first replaced by the text.
        text = np.array([positions] + [str(p) for p in read_arrays(tmp_path)["positions"][1:]])
        rewrite(tmp_path, "positions.npy", positions.encode())
        reject(tmp_path, "positions.npy", "not a readable .npy array")
        rewrite(tmp_path, "positions.npy", npy_bytes(text))
        reject(tmp_path, "positions.npy", f"expected 10 little-endian int32 values in one "
                                          f"dimension, found {text.dtype} of shape (10,)")

    @pytest.mark.parametrize(
        "terms, rows, name, message",
        [
            # Rows as save_index writes them: a 0, b 0, b 2, c 0, c 2, d 0, e 0, f 0.
            ("bacdef", None, "terms.txt", "line 2: term 'a' is empty or does not come after "
                                          "the previous term; terms must strictly ascend"),
            ("abcbef", None, "terms.txt", "line 4: term 'b' is empty or does not come after "
                                          "the previous term; terms must strictly ascend"),
            ("abcdef", [0, 2, 0], "row_docs.npy",
             "row 2 (term 'b', document 0): does not ascend within the term, after document 2"),
            ("abcdef", [0, 0, 0], "row_docs.npy",
             "row 2 (term 'b', document 0): does not ascend within the term, after document 0"),
        ],
        ids=["terms-descend", "term-group-split", "documents-descend", "document-repeated"],
    )
    def test_rows_out_of_order_rejected(self, tmp_path, terms, rows, name, message):
        save_snapshot(self.DOCS, tmp_path)
        rewrite(tmp_path, "terms.txt", "".join(f"{t}\n" for t in terms).encode())
        if rows is not None:
            row_docs = read_arrays(tmp_path)["row_docs"]
            row_docs[:3] = rows
            rewrite_arrays(tmp_path, row_docs=row_docs)
        reject(tmp_path, name, message)

    @pytest.mark.parametrize(
        "change, name, message",
        [
            ({"row_docs": [0, 0, 2, 0, 2, 0, 0]}, "row_docs.npy",
             "expected 8 little-endian int32 values in one dimension, found int32 of "
             "shape (7,)"),
            ({"tfs": [2, 1, 2, 1, 1, 1, 1, 1, 1]}, "tfs.npy",
             "expected 8 little-endian int32 values in one dimension, found int32 of "
             "shape (9,)"),
            ({"terms": ["", "b", "c", "d", "e", "f"]}, "terms.txt",
             "line 1: term '' is empty or does not come after the previous term"),
            ({"row_docs": [0, 3, 2, 0, 2, 0, 0, 0]}, "row_docs.npy",
             "row 1 (term 'b', document 3): document number is not a line of doc_ids.txt "
             "(0 to 2)"),
            ({"row_docs": [0, -1, 2, 0, 2, 0, 0, 0]}, "row_docs.npy",
             "row 1 (term 'b', document -1): document number is not a line of doc_ids.txt "
             "(0 to 2)"),
            # Row 4 is "c" in document 2 (length 3) at position 1.
            ({"positions": [0, 6, 1, 0, 2, 2, 3, 3, 4, 5]}, "positions.npy",
             "row 4 (term 'c', document 2): positions [3] are not strictly ascending from 0 "
             "and below the document's length 3"),
        ],
        ids=["two-fields", "four-fields", "empty-term", "doc-past-end", "doc-negative",
             "past-doc-end"],
    )
    def test_malformed_positions_line_reported(self, tmp_path, change, name, message):
        """A row (a line of the text format) whose document, term or positions are malformed.

        A row missing a field or holding an extra one is a row array one value
        short or long.
        """
        save_snapshot(self.DOCS, tmp_path)
        if "terms" in change:
            rewrite(tmp_path, "terms.txt", "".join(f"{t}\n" for t in change.pop("terms")).encode())
        rewrite_arrays(tmp_path, **change)
        reject(tmp_path, name, message)

    @pytest.mark.parametrize(
        "change, name, message",
        [
            ({"lengths": [8, -1, 3]}, "lengths.npy", "value -1 at index 1 is below 0"),
            ({"dfs": [0, 3, 2, 1, 1, 1]}, "dfs.npy", "value 0 at index 0 is below 1"),
            ({"tfs": [0, 3, 2, 1, 1, 1, 1, 1]}, "tfs.npy", "value 0 at index 0 is below 1"),
            # "c" also claims position 1 of document 0, which "b" holds, and none holds 2.
            ({"positions": [0, 6, 1, 0, 2, 1, 1, 3, 4, 5]}, "positions.npy",
             "position 1 of document 0 is held by 2 rows, not one"),
            # Document 0 holds 7 tokens, but its rows hold 6 positions.
            ({"positions": [0, 1, 0, 2, 2, 1, 3, 4, 5], "tfs": [1, 1, 2, 1, 1, 1, 1, 1]},
             "positions.npy", "position 6 of document 0 is held by 0 rows, not one"),
        ],
        ids=["negative-length", "zero-df", "zero-tf", "two-terms-one-position",
             "tfs-short-of-length"],
    )
    def test_malformed_counts_rejected(self, tmp_path, change, name, message):
        save_snapshot(self.DOCS, tmp_path)
        rewrite_arrays(tmp_path, **change)
        reject(tmp_path, name, message)

    @pytest.mark.parametrize(
        "data, message",
        [
            (npy_bytes(np.array([0, 6, 1, 0, 2, 2, 1, 3, 4, "5"], dtype=object)),
             "not a readable .npy array"),
            (pickle.dumps([0, 6, 1, 0, 2, 2, 1, 3, 4, 5]),
             "not a readable .npy array"),
            (npy_bytes(np.array([0, 6, 1, 0, 2, 2, 1, 3, 4, 5], dtype=np.int64)),
             "found int64 of shape (10,)"),
            (npy_bytes(np.array([0, 6, 1, 0, 2, 2, 1, 3, 4, 5], dtype=np.float64)),
             "found float64 of shape (10,)"),
            (npy_bytes(np.array([0, 6, 1, 0, 2, 2, 1, 3, 4, 5], dtype=">i4")),
             "found >i4 of shape (10,)"),
            (npy_bytes(np.array([[0, 6, 1, 0, 2], [2, 1, 3, 4, 5]], dtype=np.int32)),
             "found int32 of shape (2, 5)"),
            (npy_bytes(np.array([0, 6, 1, 0, 2, 2, 1, 3, 4, 5], dtype=np.int32))[:-4],
             "not a readable .npy array"),
            (b"0,6\n1\n0,2\n", "not a readable .npy array"),
            (npz_bytes(np.array([0, 6, 1, 0, 2, 2, 1, 3, 4, 5], dtype=np.int32)),
             "holds an archive, not one array"),
        ],
        ids=["object", "pickled", "int64", "float", "big-endian", "two-dimensional",
             "truncated", "text", "archive"],
    )
    def test_malformed_array_file_rejected(self, tmp_path, data, message):
        save_snapshot(self.DOCS, tmp_path)
        rewrite(tmp_path, "positions.npy", data)
        if message.startswith("found"):
            message = f"expected 10 little-endian int32 values in one dimension, {message}"
        reject(tmp_path, "positions.npy", message)

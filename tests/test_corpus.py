"""Tokenizer, index statistics, co-occurrence windows, and snapshots."""

import json
import random
import re

import numpy as np
import pytest

from affixgen.config import ExperimentConfig
from affixgen.corpus import (
    FORMAT_VERSION,
    CooccurrenceTable,
    Document,
    PairCountMemo,
    StopwordList,
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
        stop = StopwordList(frozenset({"the", "a"}))
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
            assert (index.postings, index.doc_len, index.collection_freq) == (
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

    def test_pair_count_memo_matches_the_table(self):
        rng = random.Random(23)
        table = cooc_of(
            [[rng.choice("abcdefg") for _ in range(rng.randint(0, 12))] for _ in range(30)], 4)
        memo = PairCountMemo(table)
        for a in "abcdefgz":
            for b in "abcdefgz":
                assert memo.pair_count(a, b) == table.pair_count(a, b) == table.pair_count(b, a)
        assert memo.positions is table.positions
        assert memo.unigram_window_count is table.unigram_window_count
        assert (memo.window_size, memo.total_windows, memo.doc_len) == (
            table.window_size, table.total_windows, table.doc_len)
        assert not hasattr(table, "_counts")

    def test_pair_count_memo_counts_each_unordered_pair_once(self):
        calls = []

        class CountingTable(CooccurrenceTable):
            def pair_count(self, a, b):
                calls.append((a, b))
                return super().pair_count(a, b)

        table = CountingTable(3)
        vars(table).update(vars(cooc_of([["a", "b", "c", "d"]], 3)))
        memo = PairCountMemo(table)
        assert [memo.pair_count(*p) for p in ("ab", "ba", "ab", "cb", "bc")] == [1, 1, 1, 2, 2]
        assert calls == [("a", "b"), ("b", "c")]
        assert PairCountMemo(table).pair_count("b", "a") == 1  # a new memo starts empty
        assert calls[-1] == ("a", "b")

    def test_invalid_window_size(self):
        with pytest.raises(ValueError, match="window_size"):
            CooccurrenceTable(0)

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


class TestPosLexicon:
    def test_load_and_fallback(self, tmp_path):
        path = tmp_path / "pos.tsv"
        path.write_text("cat\tN\nrun\tV\n\n", encoding="utf-8")
        lex = load_pos_lexicon(path)
        assert lex.tag_of("cat") == "N"
        assert lex.tag_of("dog") == "UNK"

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "pos.tsv"
        path.write_text("cat\tN\nbroken line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_pos_lexicon(path)

    def test_empty_file_means_all_unknown(self, tmp_path):
        path = tmp_path / "pos.tsv"
        path.write_text("", encoding="utf-8")
        lex = load_pos_lexicon(path)
        assert lex.tag_of("anything") == "UNK"


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


def rewrite(directory, name, text):
    """Replace a data file, recording its new size so that only the content is wrong."""
    (directory / name).write_text(text, encoding="utf-8")
    manifest = json.loads((directory / "index.json").read_text(encoding="utf-8"))
    manifest["file_bytes"][name] = (directory / name).stat().st_size
    (directory / "index.json").write_text(json.dumps(manifest), encoding="utf-8")


def write_version_2_snapshot(directory):
    """The five files of a two-token version-2 snapshot."""
    index = {"format_version": 2, "kind": "collection_index", "num_docs": 1,
             "total_tokens": 2, "vocabulary_size": 2, "tokenizer": {}}
    cooc = {"format_version": 2, "kind": "cooccurrence", "total_windows": 1,
            "window_size": 10}
    (directory / "index.json").write_text(json.dumps(index), encoding="utf-8")
    (directory / "cooccurrence.json").write_text(json.dumps(cooc), encoding="utf-8")
    (directory / "postings.tsv").write_text("a\td1\t1\nb\td1\t1\n", encoding="utf-8")
    (directory / "doc_lens.tsv").write_text("d1\t2\n", encoding="utf-8")
    (directory / "positions.tsv").write_text("a\t0\t0\nb\t0\t1\n", encoding="utf-8")


class TestSnapshots:
    DOCS = [Document("d1", "a b c d e f a"), Document("d0", ""), Document("d2", "b c b")]

    def test_index_round_trip_and_reproducibility(self, tmp_path):
        postings, doc_len, collection_freq = index_bruteforce(token_stream(self.DOCS))
        manifest = save_snapshot(self.DOCS, tmp_path / "snap")
        assert (manifest["num_docs"], manifest["total_tokens"], manifest["vocabulary_size"]) == (
            3, 10, 6)
        loaded = load_index(tmp_path / "snap")
        assert loaded.postings == postings
        assert loaded.doc_len == doc_len
        assert list(loaded.doc_len) == ["d1", "d0", "d2"]
        assert loaded.collection_freq == collection_freq
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
        # Documents are numbered by their line in doc_lens.tsv: d1, d0, d2.
        assert loaded.positions == {
            "a": {0: [0, 6]}, "b": {0: [1], 2: [0, 2]}, "c": {0: [2], 2: [1]},
            "d": {0: [3]}, "e": {0: [4]}, "f": {0: [5]}}
        assert loaded.doc_len == [7, 0, 3]
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

    def test_duplicate_document_id_writes_nothing(self, tmp_path):
        docs = self.DOCS + [Document("d0", "a b")]
        with pytest.raises(ValueError, match="duplicate document identifier: 'd0'"):
            save_snapshot(docs, tmp_path / "snap")
        assert not (tmp_path / "snap").exists()

    def test_version_2_snapshot_refused(self, tmp_path):
        write_version_2_snapshot(tmp_path)
        for load in (load_index, load_cooccurrence):
            with pytest.raises(ValueError, match="unsupported format version"):
                load(tmp_path)

        # A version-3 manifest recorded the window it was indexed with.
        save_snapshot(self.DOCS, tmp_path)
        path = tmp_path / "index.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["format_version"] == FORMAT_VERSION == 4
        manifest.update(format_version=3, window_size=10, total_windows=6)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        for load in (load_index, load_cooccurrence):
            with pytest.raises(ValueError, match="unsupported format version"):
                load(tmp_path)

    def test_saving_over_a_version_2_snapshot_removes_its_files(self, tmp_path):
        write_version_2_snapshot(tmp_path)
        save_snapshot(self.DOCS, tmp_path)
        assert {p.name for p in tmp_path.iterdir()} == {
            "index.json", "doc_lens.tsv", "positions.tsv"}
        assert load_cooccurrence(tmp_path).doc_len == [7, 0, 3]

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

    def test_manifest_mismatch_detected(self, tmp_path):
        save_snapshot([Document("d1", "a b")], tmp_path)
        (tmp_path / "doc_lens.tsv").write_text("d1\t2\nd9\t3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="doc_lens.tsv: size mismatch"):
            load_index(tmp_path)

    def test_appended_line_fails_size_check(self, tmp_path):
        save_snapshot([Document("d1", "a b")], tmp_path)
        with open(tmp_path / "positions.tsv", "a", encoding="utf-8") as handle:
            handle.write("c\t0\t2\n")
        for load in (load_index, load_cooccurrence):
            with pytest.raises(ValueError, match="positions.tsv: size mismatch"):
                load(tmp_path)

    @pytest.mark.parametrize(
        "line, loads, message",
        [
            ("z\t0", (load_index, load_cooccurrence), "expected a term"),
            ("z\t0\t1\textra", (load_index, load_cooccurrence), "expected a term"),
            ("\t0\t1", (load_index, load_cooccurrence), "expected a term"),
            ("z\t3\t1", (load_index, load_cooccurrence), "document number '3'"),
            ("z\t-1\t1", (load_index, load_cooccurrence), "document number '-1'"),
            ("z\t2\t1,3", (load_cooccurrence,), "position 3 is not below the length 3"),
        ],
        ids=["two-fields", "four-fields", "empty-term", "doc-past-end", "doc-negative",
             "past-doc-end"],
    )
    def test_malformed_positions_line_reported(self, tmp_path, line, loads, message):
        save_snapshot(self.DOCS, tmp_path)
        rows = (tmp_path / "positions.tsv").read_text(encoding="utf-8").splitlines()
        rewrite(tmp_path, "positions.tsv", "\n".join(rows[:2] + [line] + rows[2:]) + "\n")
        for load in loads:
            with pytest.raises(ValueError, match=f"positions.tsv: line 3: {message}"):
                load(tmp_path)

    @pytest.mark.parametrize(
        "positions, loads, message",
        [
            ("6,0", (load_cooccurrence,), "are not strictly ascending"),
            ("0,0,6", (load_cooccurrence,), "are not strictly ascending"),
            ("0,6,6", (load_cooccurrence,), "are not strictly ascending"),
            # A minus sign is not a digit, so both loaders refuse these.
            ("-1,6", (load_index, load_cooccurrence), "are not ASCII digits"),
            ("-1", (load_index, load_cooccurrence), "are not ASCII digits"),
        ],
        ids=["6,0", "0,0,6", "0,6,6", "-1,6", "-1"],
    )
    def test_positions_not_strictly_ascending_rejected(self, tmp_path, positions, loads,
                                                       message):
        # "a" is at 0 and 6 of the first document, on the first line.
        save_snapshot(self.DOCS, tmp_path)
        rows = (tmp_path / "positions.tsv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "a\t0\t0,6"
        rewrite(tmp_path, "positions.tsv", "\n".join([f"a\t0\t{positions}"] + rows[1:]) + "\n")
        for load in loads:
            with pytest.raises(ValueError, match=f"positions.tsv: line 1: positions "
                                                 f"'{positions}' {message}"):
                load(tmp_path)

    @pytest.mark.parametrize(
        "positions",
        ["x,y", "0,٦", "0_6", " 6", "+6", "0,,6", ",6", "0,", "", "0, 6", "6²"],
        ids=["letters", "arabic-indic-digit", "underscore", "leading-space", "plus-sign",
             "empty-item", "leading-comma", "trailing-comma", "empty", "space-after-comma",
             "superscript"],
    )
    def test_non_canonical_position_text_rejected(self, tmp_path, positions):
        # load_index used to count commas (tf 2 for "x,y"), and int() accepts
        # the digit, underscore, space and sign variants.
        save_snapshot(self.DOCS, tmp_path)
        rows = (tmp_path / "positions.tsv").read_text(encoding="utf-8").splitlines()
        rewrite(tmp_path, "positions.tsv", "\n".join([f"a\t0\t{positions}"] + rows[1:]) + "\n")
        for load in (load_index, load_cooccurrence):
            with pytest.raises(ValueError, match=re.escape(
                    f"positions.tsv: line 1: positions {positions!r} are not ASCII digits "
                    f"joined by single commas")):
                load(tmp_path)

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            # Rows as save_index writes them: a 0, b 0, b 2, c 0, c 2, d 0, e 0, f 0.
            ([1, 0], 2, "term 'a' comes after 'b'; terms must ascend in groups"),
            ([0, 1, 3, 2], 4, "term 'b' comes after 'c'; terms must ascend in groups"),
            ([0, 2, 1], 3, "document number 0 does not ascend within term 'b'"),
            ([0, 1, 1], 3, "document number 0 does not ascend within term 'b'"),
        ],
        ids=["terms-descend", "term-group-split", "documents-descend", "document-repeated"],
    )
    def test_rows_out_of_order_rejected(self, tmp_path, rows, line, message):
        save_snapshot(self.DOCS, tmp_path)
        written = (tmp_path / "positions.tsv").read_text(encoding="utf-8").splitlines()
        assert written[:3] == ["a\t0\t0,6", "b\t0\t1", "b\t2\t0,2"]
        reordered = [written[r] for r in rows] + written[max(rows) + 1:]
        rewrite(tmp_path, "positions.tsv", "\n".join(reordered) + "\n")
        for load in (load_index, load_cooccurrence):
            with pytest.raises(ValueError, match=re.escape(
                    f"positions.tsv: line {line}: {message}")):
                load(tmp_path)

    def test_malformed_doc_lens_line_reported(self, tmp_path):
        save_snapshot(self.DOCS, tmp_path)
        rewrite(tmp_path, "doc_lens.tsv", "d1\t7\nd0 0\nd2\t3\n")
        for load in (load_index, load_cooccurrence):
            with pytest.raises(ValueError, match="doc_lens.tsv: line 2: expected a doc"):
                load(tmp_path)

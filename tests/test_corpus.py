"""Tokenizer, index statistics, co-occurrence windows, and snapshots."""

import json
import random

import pytest

from affixgen.corpus import (
    CooccurrenceTable,
    Document,
    StopwordList,
    build_index,
    load_cooccurrence,
    load_index,
    load_pos_lexicon,
    load_stopwords,
    read_documents,
    save_cooccurrence,
    save_index,
    tokenize,
)
from oracles import window_cooccurrence_bruteforce


def cooccurrence(docs, window_size):
    table = CooccurrenceTable(window_size)
    for doc in docs:
        table.add_document(tokenize(doc.text))
    return table


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
        index = build_index(docs)
        assert index.num_docs == 2
        assert index.total_tokens == 5
        assert index.tf("apple", "d1") == 2
        assert index.tf("apple", "d2") == 0
        assert index.df("banana") == 2
        assert index.cf("banana") == 2
        assert index.doc_len["d2"] == 2
        assert index.vocabulary == {"apple", "banana", "cherry"}

    def test_duplicate_doc_id_rejected(self):
        docs = [Document("x", "a"), Document("x", "b")]
        with pytest.raises(ValueError, match="x"):
            build_index(docs)

    def test_statistics_consistent_on_random_corpora(self):
        rng = random.Random(42)
        vocab = ["w" + chr(ord("a") + i) for i in range(26)]
        for _ in range(20):
            docs = [
                Document(f"d{d}", " ".join(rng.choices(vocab, k=rng.randint(0, 40))))
                for d in range(rng.randint(1, 15))
            ]
            index = build_index(docs)
            assert sum(index.doc_len.values()) == index.total_tokens
            for term in index.vocabulary:
                assert index.cf(term) == sum(index.postings[term].values())
                assert index.df(term) == len(index.postings[term])
                assert index.cf(term) >= index.df(term) >= 1


class TestCooccurrence:
    def test_short_doc_single_truncated_window(self):
        table = cooccurrence([Document("d", "a b")], 10)
        assert table.total_windows == 1
        assert table.pair_count("a", "b") == 1
        assert table.pair_count("b", "a") == 1

    def test_sliding_step_one(self):
        table = cooccurrence([Document("d", "a b c")], 2)
        assert table.total_windows == 2
        assert table.pair_count("a", "b") == 1
        assert table.pair_count("b", "c") == 1
        assert table.pair_count("a", "c") == 0

    def test_self_pairs_excluded(self):
        table = cooccurrence([Document("d", "a a")], 2)
        assert table.pair_count("a", "a") == 0
        assert table.unigram_window_count["a"] == 1
        assert table.total_windows == 1

    def test_windows_never_cross_documents(self):
        table = cooccurrence([Document("1", "a"), Document("2", "b")], 10)
        assert table.pair_count("a", "b") == 0
        assert table.total_windows == 2

    def test_pair_counted_once_per_window(self):
        # Repeats within one window still count the distinct pair once.
        table = cooccurrence([Document("d", "a b a b")], 4)
        assert table.pair_count("a", "b") == 1

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
            table = cooccurrence(docs, window)
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
        assert lex.tagset == {"N", "V", "UNK"}

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


class TestSnapshots:
    def test_index_round_trip_and_reproducibility(self, tmp_path):
        docs = [
            Document("d1", "apple banana apple"),
            Document("d2", "banana cherry dates"),
            Document("d3", ""),
        ]
        index = build_index(docs)
        out = tmp_path / "snap"
        save_index(index, out)
        loaded = load_index(out)
        assert loaded.postings == index.postings
        assert loaded.doc_len == index.doc_len
        assert loaded.collection_freq == index.collection_freq
        assert loaded.total_tokens == index.total_tokens

        first = {p.name: p.read_bytes() for p in out.iterdir()}
        save_index(loaded, out)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_cooccurrence_round_trip(self, tmp_path):
        docs = [Document("d1", "a b c d e f"), Document("d0", ""), Document("d2", "b c b")]
        table = cooccurrence(docs, 3)
        save_cooccurrence(table, tmp_path)
        loaded = load_cooccurrence(tmp_path)
        assert loaded.window_size == table.window_size
        assert loaded.positions == table.positions
        assert loaded.doc_len == table.doc_len
        assert_counts_match_bruteforce(loaded, docs, "abcdefg")

        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        save_cooccurrence(loaded, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first

    def test_version_1_cooccurrence_snapshot_refused(self, tmp_path):
        manifest = {"format_version": 1, "kind": "cooccurrence",
                    "total_windows": 1, "window_size": 10}
        (tmp_path / "cooccurrence.json").write_text(json.dumps(manifest), encoding="utf-8")
        (tmp_path / "pair_windows.tsv").write_text("a\tb\t1\n", encoding="utf-8")
        (tmp_path / "unigram_windows.tsv").write_text("a\t1\nb\t1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported format version"):
            load_cooccurrence(tmp_path)

    @pytest.mark.parametrize(
        "manifest, key, save, load",
        [
            ("index.json", "vocabulary_size", save_index, load_index),
            ("cooccurrence.json", "total_windows", save_cooccurrence, load_cooccurrence),
        ],
    )
    def test_manifest_count_checked(self, tmp_path, manifest, key, save, load):
        docs = [Document("d1", "a b c d"), Document("d2", "b e")]
        table = build_index(docs) if save is save_index else cooccurrence(docs, 2)
        save(table, tmp_path)
        path = tmp_path / manifest
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[key] += 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=f"{tmp_path}.*mismatch"):
            load(tmp_path)

    def test_manifest_mismatch_detected(self, tmp_path):
        docs = [Document("d1", "a b")]
        save_index(build_index(docs), tmp_path)
        lens = tmp_path / "doc_lens.tsv"
        lens.write_text("d1\t2\nd9\t3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="mismatch"):
            load_index(tmp_path)

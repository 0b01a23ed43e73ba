"""Indel distance, rule extraction, mining, and rule-table serialization."""

import math
import random
from dataclasses import replace

import pytest

from affixgen import rules as rules_mod
from affixgen.morphgen import apply_rule
from affixgen.rules import (
    Action,
    CharSignatures,
    MedConfig,
    RuleTable,
    TransformationRule,
    extract_rule,
    format_actions,
    load_rules,
    mine_rules,
    parse_actions,
    save_rules,
    score_rules,
)
from oracles import (
    all_optimal_action_lists,
    canonical_action_list,
    char_count_within_dense,
    indel_distance,
    indel_distance_lcs,
    lcs_len,
    mine_rules_bruteforce,
)


def random_word(rng, alphabet, lo=0, hi=10):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


class TestIndelDistance:
    def test_known_values(self):
        assert indel_distance("abc", "abc") == 0
        assert indel_distance("", "abc") == 3
        assert indel_distance("abc", "") == 3
        assert indel_distance("ab", "ba") == 2
        assert indel_distance("shm", "sham") == 1

    def test_substitution_forbidden(self):
        # One substitution site costs a delete plus an insert.
        assert indel_distance("cat", "cut") == 2

    def test_lcs_identity_random(self):
        rng = random.Random(42)
        for _ in range(2000):
            a = random_word(rng, "abc")
            b = random_word(rng, "abc")
            assert indel_distance(a, b) == len(a) + len(b) - 2 * lcs_len(a, b)

    def test_lcs_identity_unicode(self):
        rng = random.Random(7)
        alphabet = "ابجد"
        for _ in range(500):
            a = random_word(rng, alphabet, 0, 8)
            b = random_word(rng, alphabet, 0, 8)
            assert indel_distance(a, b) == len(a) + len(b) - 2 * lcs_len(a, b)

    def test_symmetry_and_triangle(self):
        rng = random.Random(13)
        for _ in range(300):
            a = random_word(rng, "abcd")
            b = random_word(rng, "abcd")
            c = random_word(rng, "abcd")
            assert indel_distance(a, b) == indel_distance(b, a)
            assert indel_distance(a, c) <= indel_distance(a, b) + indel_distance(b, c)


class TestBandedDistance:
    def test_agrees_with_full_distance(self):
        # The kernel's distance, and the search's cut at k: a pair within k
        # is found at that distance, a pair beyond k is not found (nor is
        # the word itself, which the search skips).
        rng = random.Random(99)
        for _ in range(500):
            a = random_word(rng, "abcde")
            b = random_word(rng, "abcde")
            d = indel_distance_lcs(a, b)
            assert indel_distance(a, b) == d
            for k in range(0, 7):
                found = [n[1] for n in CharSignatures([b]).neighbours(a, k)]
                assert found == ([d] if d <= k and a != b else [])


class TestCharSignatures:
    def test_within_matches_character_count_distance(self):
        # Calls with varying words, starts and k reuse one set of lists.
        rng = random.Random(5)
        words = [random_word(rng, "abcde") for _ in range(60)]
        sigs = CharSignatures(words)
        for _ in range(300):
            w = random_word(rng, "abcdx")
            k, start = rng.randint(0, 4), rng.randint(0, len(words))
            expected = [
                row for row in range(start, len(words))
                if sum(abs(w.count(c) - words[row].count(c)) for c in "abcdex") <= k
            ]
            assert sigs.within(w, k, start).tolist() == expected

    @staticmethod
    def assert_matches_dense(words, w, k, start=0):
        got = CharSignatures(words).within(w, k, start)
        want = char_count_within_dense(words, w, k, start)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    def test_within_matches_dense_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            alphabet = rng.choice(["ab", "abcde", "aäöüß", "кот", "abcdefghij"])
            words = [random_word(rng, alphabet, 0, 9) for _ in range(rng.randint(1, 50))]
            sigs = CharSignatures(words)
            for _ in range(25):
                # "xé" lie outside every alphabet above.
                w = random_word(rng, alphabet + "xé", 0, 12)
                k, start = rng.randint(0, 5), rng.randint(0, len(words))
                want = char_count_within_dense(words, w, k, start)
                got = sigs.within(w, k, start)
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()

    def test_long_lists_cut_at_start_match_dense_oracle(self):
        # Over three letters, 3,000 words put thousands of rows on the lists
        # of one copy of a letter, so those lists are cut at ``start``; the
        # lists for more copies stay short and are not.
        rng = random.Random(12)
        words = [random_word(rng, "abc", 0, 9) for _ in range(3000)]
        sigs = CharSignatures(words)
        assert max(len(rows) for rows in sigs._rows.values()) > 2000
        for start in [0, 1, 1024, 1025, 2999, 3000, *rng.sample(range(3000), 20)]:
            w = random_word(rng, "abcx", 0, 10)
            k = rng.randint(0, 4)
            assert sigs.within(w, k, start).tolist() == char_count_within_dense(
                words, w, k, start).tolist()

    def test_characters_outside_the_alphabet_count_one_each(self):
        words = ["ab", "abc", "b", ""]
        for w in ("xy", "abx", "éé", "x"):
            for k in range(5):
                self.assert_matches_dense(words, w, k)
        # x counts one: "ab" lies 1 away, "abc" and "b" 2, "" 3.
        assert CharSignatures(words).within("abx", 2).tolist() == [0, 1, 2]

    def test_more_copies_than_any_word(self):
        words = ["aab", "ab", "ba", "aaab", "b"]
        for k in range(7):
            self.assert_matches_dense(words, "aaaaab", k)
        # "aaaaab" is 2 from "aaab" (two extra a's) and 3 from "aab".
        assert CharSignatures(words).within("aaaaab", 3).tolist() == [0, 3]

    def test_empty_word_and_empty_list(self):
        words = ["", "a", "ab", "abc", "abcd"]
        for k in range(5):
            self.assert_matches_dense(words, "", k)
        assert CharSignatures(words).within("", 2).tolist() == [0, 1, 2]
        for w in ("", "ab"):
            self.assert_matches_dense([], w, 3)
            assert CharSignatures([]).within(w, 3).tolist() == []

    def test_start_at_the_end(self):
        words = ["ab", "ba", "abc"]
        for w in ("ab", "", "zz"):
            self.assert_matches_dense(words, w, 3, start=len(words))
            assert CharSignatures(words).within(w, 3, len(words)).tolist() == []

    def test_neighbours_match_bruteforce(self):
        # Unsorted lists with repeats, so row order and the skip of ``w`` show.
        rng = random.Random(13)
        for _ in range(30):
            alphabet = rng.choice(["ab", "abcde", "aäöüß"])
            words = [random_word(rng, alphabet, 0, 8) for _ in range(rng.randint(1, 25))]
            sigs = CharSignatures(words)
            for w in [*words[::4], random_word(rng, alphabet + "x", 0, 8)]:
                found = [(s, indel_distance(w, s), extract_rule(w, s).actions)
                         for s in words]
                for k in range(4):
                    for start in range(len(words) + 1):
                        expected = [n for n in found[start:] if n[0] != w and n[1] <= k]
                        got = list(sigs.neighbours(w, k, start))
                        assert [n[:3] for n in got] == expected
                        # The reverse rule, traced over the same rows.
                        assert [n[3]() for n in got] == [
                            extract_rule(s, w).actions for s, _, _ in expected]

    def test_short_words_without_a_shared_character(self):
        # No overlap at all: only len(w) + len(s) <= k keeps a row.
        words = ["a", "bc", "d", "efg", "h"]
        for k in range(6):
            self.assert_matches_dense(words, "xy", k)
        assert CharSignatures(words).within("xy", 3).tolist() == [0, 2, 4]
        assert CharSignatures(words).within("xy", 4).tolist() == [0, 1, 2, 4]


class TestExtractRule:
    def test_single_end_insertion(self):
        rule = extract_rule("jhangrd", "jhangrdi", "N")
        assert rule.actions == (Action("i", "e", "i"),)
        assert rule.pos_tag == "N"

    def test_double_end_insertion(self):
        rule = extract_rule("jhangrd", "jhangrdan")
        assert rule.actions == (Action("i", "e", "a"), Action("i", "e", "n"))

    def test_middle_insertion(self):
        rule = extract_rule("ksart", "ksarat")
        assert rule.actions == (Action("i", "m", "a"),)

    def test_begin_insert_with_end_delete(self):
        rule = extract_rule("shabe", "ashab")
        assert rule.actions == (Action("i", "b", "a"), Action("d", "e", "e"))

    def test_middle_insert_with_end_delete(self):
        rule = extract_rule("jzirh", "jzair")
        assert rule.actions == (Action("i", "m", "a"), Action("d", "e", "h"))

    def test_begin_and_middle_insertions(self):
        rule = extract_rule("hal", "ahval")
        assert rule.actions == (Action("i", "b", "a"), Action("i", "m", "v"))

    def test_middle_and_end_insertions(self):
        rule = extract_rule("arz", "arazi")
        assert rule.actions == (Action("i", "m", "a"), Action("i", "e", "i"))

    def test_identity_pair_gives_empty_rule(self):
        assert extract_rule("same", "same").actions == ()

    def test_action_count_equals_distance(self):
        rng = random.Random(4)
        for _ in range(400):
            a = random_word(rng, "abc", 0, 7)
            b = random_word(rng, "abc", 0, 7)
            rule = extract_rule(a, b)
            assert len(rule.actions) == indel_distance_lcs(a, b)

    def test_canonical_path_is_among_all_optimal_paths(self):
        rng = random.Random(5)
        for _ in range(300):
            a = random_word(rng, "ab", 0, 6)
            b = random_word(rng, "ab", 0, 6)
            rule = extract_rule(a, b)
            assert rule.actions in all_optimal_action_lists(a, b)

    def test_tie_break_matches_reference_traceback(self):
        # Which optimal alignment is chosen decides which rule is counted.
        rng = random.Random(17)
        for alphabet, hi in (("ab", 8), ("abc", 10), ("aäöo", 9), ("ابجد", 7)):
            for _ in range(5000):
                a = random_word(rng, alphabet, 0, hi)
                b = random_word(rng, alphabet, 0, hi)
                assert extract_rule(a, b).actions == canonical_action_list(a, b), (a, b)

    def test_both_directions_match_the_oracle(self):
        # Empty words, runs of one character, words longer than 64
        # characters (a row spans several machine words) and non-ASCII
        # letters. The reverse rule traced over the a -> b rows is b -> a's.
        rng = random.Random(29)
        cases = [("", ""), ("", "ab"), ("aaa", ""), ("aaaa", "aa"), ("abab", "baba")]
        for alphabet, lo, hi, count in (("ab", 0, 6, 400), ("aaab", 0, 12, 400),
                                        ("aäöüß", 0, 10, 400), ("ابپتثجچ", 0, 10, 400),
                                        ("abcdefgh", 60, 140, 40), ("aab", 65, 130, 40)):
            for _ in range(count):
                a = random_word(rng, alphabet, lo, hi)
                edits = list(a)
                for _ in range(rng.randint(0, 4)):
                    if edits and rng.random() < 0.5:
                        del edits[rng.randrange(len(edits))]
                    else:
                        edits.insert(rng.randint(0, len(edits)), rng.choice(alphabet))
                # A random partner and a near one, a few edits away.
                cases += [(a, random_word(rng, alphabet, lo, hi)), (a, "".join(edits))]
        for a, b in cases:
            forward, backward = extract_rule(a, b).actions, extract_rule(b, a).actions
            assert forward == canonical_action_list(a, b), (a, b)
            assert backward == canonical_action_list(b, a), (a, b)
            found = list(CharSignatures([b]).neighbours(a, len(a) + len(b)))
            if a != b:
                ((_, d, actions, reverse),) = found
                assert (d, actions, reverse()) == (len(forward), forward, backward)

    def test_round_trip_random(self):
        rng = random.Random(6)
        for _ in range(600):
            a = random_word(rng, "abcd", 0, 8)
            b = random_word(rng, "abcd", 0, 8)
            rule = extract_rule(a, b)
            assert b in apply_rule(a, rule)

    def test_round_trip_boundary_stacks(self):
        # Multiple edits piling onto one side still reapply cleanly.
        cases = [
            ("x", "abx"), ("abx", "x"), ("x", "xab"), ("xab", "x"),
            ("", "ab"), ("ab", ""), ("a", "bab"), ("aaa", "a"),
        ]
        for a, b in cases:
            assert b in apply_rule(a, extract_rule(a, b))


class TestMineRules:
    def test_two_word_example(self):
        table = mine_rules({"ab", "abc"})
        insert_rule = TransformationRule((Action("i", "e", "c"),))
        delete_rule = TransformationRule((Action("d", "e", "c"),))
        assert table.counts == {insert_rule: 1, delete_rule: 1}
        assert table.probs[insert_rule] == pytest.approx(0.5)
        assert table.total_count == 2

    def test_plural_family_counts(self):
        table = mine_rules({"cat", "cats", "mat", "mats"})
        plural = TransformationRule((Action("i", "e", "s"),))
        singular = TransformationRule((Action("d", "e", "s"),))
        assert table.counts[plural] == 2
        assert table.counts[singular] == 2
        assert math.isclose(sum(table.probs.values()), 1.0, abs_tol=1e-9)

    def test_pos_tags_split_rules(self):
        tags = {"cat": "N", "mat": "X"}
        table = mine_rules({"cat", "cats", "mat", "mats"}, lambda w: tags.get(w, "UNK"))
        plural_n = TransformationRule((Action("i", "e", "s"),), "N")
        plural_x = TransformationRule((Action("i", "e", "s"),), "X")
        assert table.counts[plural_n] == 1
        assert table.counts[plural_x] == 1

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(11)
        words = {random_word(rng, "abcde", 2, 7) for _ in range(80)}
        tags = {w: rng.choice("NV") for w in list(words)[::3]}
        tagger = lambda w: tags.get(w, "UNK")
        table = mine_rules(words, tagger)
        counts, probs = mine_rules_bruteforce(words, tagger, 3)
        assert table.counts == dict(counts)
        assert table.probs == probs
        assert math.isclose(sum(table.probs.values()), 1.0, abs_tol=1e-9)

    def test_one_alignment_per_candidate_pair(self, monkeypatch):
        # One set of LCS rows for each pair the prefilter keeps, built from
        # the earlier word; the reverse rule is traced over the same rows.
        rng = random.Random(31)
        words = sorted({random_word(rng, "abcd", 1, 7) for _ in range(120)})
        counts, _ = mine_rules_bruteforce(words, lambda w: "UNK", 3)
        kept, aligned = [], []
        within, lcs_rows = CharSignatures.within, rules_mod._lcs_rows

        def counting_within(self, w, k, start=0):
            rows = within(self, w, k, start)
            kept.extend((w, self.words[row]) for row in rows.tolist())
            return rows

        monkeypatch.setattr(CharSignatures, "within", counting_within)
        monkeypatch.setattr(rules_mod, "_lcs_rows",
                            lambda a, b: aligned.append((a, b)) or lcs_rows(a, b))
        table = mine_rules(words)
        assert table.counts == dict(counts)
        assert aligned == kept
        assert 0 < table.total_count // 2 < len(aligned)

    def test_order_independence(self):
        rng = random.Random(12)
        words = [random_word(rng, "abcd", 2, 6) for _ in range(60)]
        shuffled = list(words)
        rng.shuffle(shuffled)
        assert mine_rules(words).counts == mine_rules(shuffled).counts

    def test_k_max_respected(self):
        table = mine_rules({"a", "abcd"}, config=MedConfig(k_max=2))
        assert len(table) == 0
        table = mine_rules({"a", "abcd"}, config=MedConfig(k_max=3))
        assert table.total_count == 2

    def test_empty_and_singleton_vocab(self):
        assert len(mine_rules(set())) == 0
        assert len(mine_rules({"alone"})) == 0

    def test_far_apart_words_mine_nothing(self):
        assert len(mine_rules({"aaaa", "zzzz"})) == 0

    def test_score_rules_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            score_rules({}, 3)


class TestMedConfig:
    def test_defaults(self):
        assert MedConfig().k_max == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            MedConfig(k_max=-1)

    def test_edit_costs_are_not_settable(self):
        # Costs are fixed at one, so a weighted cost cannot disagree with
        # the unit-cost distance that filters candidates.
        with pytest.raises(TypeError):
            MedConfig(cost_insert=2)


class TestSerialization:
    def test_action_text_round_trip(self):
        actions = (Action("i", "b", "a"), Action("d", "m", "x"), Action("i", "e", "ی"))
        assert parse_actions(format_actions(actions)) == actions
        assert parse_actions("") == ()

    def test_malformed_actions_rejected(self):
        for text in ("i:b", "q:b:a", "i:z:a", "i:b:ab", "::"):
            with pytest.raises(ValueError):
                parse_actions(text)

    def test_delimiter_characters_rejected(self):
        with pytest.raises(ValueError, match="serializable"):
            format_actions((Action("i", "b", "|"),))

    def test_rule_file_round_trip(self, tmp_path):
        rng = random.Random(21)
        words = {random_word(rng, "abcdef", 2, 7) for _ in range(90)}
        table = mine_rules(words)
        path = tmp_path / "rules.tsv"
        save_rules(table, path)
        loaded = load_rules(path)
        assert loaded.counts == table.counts
        assert loaded.probs == table.probs
        assert loaded.k_max == table.k_max
        assert loaded.total_count == table.total_count

    def test_snapshot_header_round_trip(self, tmp_path):
        table = replace(mine_rules({"cat", "cats", "mat", "mats"}), snapshot="0f" * 32)
        path = tmp_path / "rules.tsv"
        save_rules(table, path)
        assert path.read_text(encoding="utf-8").splitlines()[:2] == [
            f"#k_max\t{table.k_max}", f"#snapshot\t{'0f' * 32}"]
        assert load_rules(path) == table
        save_rules(mine_rules({"cat", "cats"}), path)  # mined from no snapshot
        assert "#snapshot" not in path.read_text(encoding="utf-8")
        assert load_rules(path).snapshot == ""

    @pytest.mark.parametrize("header", ["#snapshot\t", "#snapshot\tab\tcd",
                                        "#snapshot\tab\n#snapshot\tab"],
                             ids=["empty", "two-fields", "repeated"])
    def test_malformed_snapshot_header_rejected(self, tmp_path, header):
        path = tmp_path / "rules.tsv"
        path.write_text(f"#k_max\t3\n{header}\ni:e:s\tUNK\t1\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}: line \\d: expected one #snapshot"):
            load_rules(path)

    @pytest.mark.parametrize("header, lineno", [("#k_max\t3\n#k_max\t2", 2),
                                                ("#k_max\t3\t9", 1),
                                                ("#k_max\t-2", 1),
                                                ("#k_max\t0", 1)],
                             ids=["repeated", "extra-field", "negative", "zero"])
    def test_malformed_k_max_header_rejected(self, tmp_path, header, lineno):
        path = tmp_path / "rules.tsv"
        path.write_text(f"{header}\ni:e:s\tUNK\t1\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}: line {lineno}: expected one "
                                             f"#k_max<TAB>integer header of 1 or more"):
            load_rules(path)

    def test_ranking_is_deterministic(self, tmp_path):
        table = mine_rules({"cat", "cats", "mat", "mats"})
        ranked = table.ranked()
        counts = [c for _, c, _ in ranked]
        assert counts == sorted(counts, reverse=True)
        keys = [format_actions(r.actions) for r, c, _ in ranked if c == counts[0]]
        assert keys == sorted(keys)

    def test_tampered_probabilities_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        save_rules(mine_rules({"ab", "abc"}), path)
        text = path.read_text(encoding="utf-8").replace("0.5", "0.9", 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="inconsistent"):
            load_rules(path)

    @pytest.mark.parametrize(
        "text, lineno, bad",
        [
            ("#k_max\t3\ni:e:s\tUNK\tthree\t1.0\n", 2, "three"),
            ("#k_max\t3\ni:e:s\tUNK\t1\tone\n", 2, "one"),
            ("#k_max\tx\ni:e:s\tUNK\t1\t1.0\n", 1, "x"),
        ],
        ids=["count", "probability", "k_max"],
    )
    def test_malformed_numbers_name_the_line(self, tmp_path, text, lineno, bad):
        path = tmp_path / "rules.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}: line {lineno}: .*'{bad}'"):
            load_rules(path)

    def test_empty_rule_file_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("#k_max\t3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no rules"):
            load_rules(path)

"""Rule application, vocabulary-constrained generation, and noise filters."""

import itertools
import random

import pytest

from affixgen.corpus import PosLexicon
from affixgen.disambig import BilingualDictionary, build_candidate_sets
from affixgen.morphgen import (
    FormationCandidate,
    FormationGenerator,
    NoiseFilterConfig,
    apply_rule,
    context_filter,
    load_stem_table,
    ngram_split,
    save_formations,
)
from affixgen.rules import (
    Action,
    RuleTable,
    TransformationRule,
    mine_rules,
    score_rules,
)
from oracles import generate_formations_bruteforce, indel_distance_lcs
from synthcorpus import build_world
from tables import cooc_of, index_of


def rule_of(*actions, tag="UNK"):
    return TransformationRule(tuple(Action(*a) for a in actions), tag)


def table_of(weighted, k_max=3):
    return score_rules({rule: count for rule, count in weighted}, k_max)


class TestApplyRule:
    def test_empty_rule_is_identity(self):
        assert apply_rule("word", rule_of()) == {"word"}

    def test_begin_and_end_inserts_are_deterministic(self):
        assert apply_rule("shm", rule_of(("i", "b", "x"))) == {"xshm"}
        assert apply_rule("shm", rule_of(("i", "e", "x"))) == {"shmx"}

    def test_middle_insert_enumerates_interior_slots(self):
        assert apply_rule("shm", rule_of(("i", "m", "a"))) == {"sahm", "sham"}

    def test_middle_insert_needs_an_interior(self):
        assert apply_rule("a", rule_of(("i", "m", "x"))) == set()

    def test_deletes_require_matching_character(self):
        assert apply_rule("abc", rule_of(("d", "b", "a"))) == {"bc"}
        assert apply_rule("abc", rule_of(("d", "b", "z"))) == set()
        assert apply_rule("abc", rule_of(("d", "e", "c"))) == {"ab"}
        assert apply_rule("abc", rule_of(("d", "e", "z"))) == set()

    def test_middle_delete_is_strictly_interior(self):
        assert apply_rule("aba", rule_of(("d", "m", "a"))) == set()
        assert apply_rule("aba", rule_of(("d", "m", "b"))) == {"aa"}
        assert apply_rule("abba", rule_of(("d", "m", "b"))) == {"aba"}

    def test_actions_compose_left_to_right(self):
        rule = rule_of(("i", "b", "a"), ("d", "e", "e"))
        assert apply_rule("shabe", rule) == {"ashab"}

    def test_dead_branch_prunes_whole_result(self):
        rule = rule_of(("d", "b", "z"), ("i", "e", "x"))
        assert apply_rule("abc", rule) == set()


class TestFormationGenerator:
    def test_threshold_and_vocabulary_constraint(self):
        # "cats" is one cheap edit from "cat" and its rule clears the bar;
        # "dog" is unrelated and "cap" is not in the vocabulary at all.
        plural = rule_of(("i", "e", "s"))
        other = rule_of(("i", "e", "x"))
        rules = table_of([(plural, 3), (other, 2)])
        cfg = NoiseFilterConfig(rule_prob_threshold=0.5, min_len={1: 1, 2: 1, 3: 1})
        got = FormationGenerator({"cat", "cats", "dog"}, rules, cfg=cfg).generate("cat")
        assert got == [FormationCandidate("cats", "cat", plural, 0.6)]

    def test_low_probability_rules_are_dropped(self):
        plural = rule_of(("i", "e", "s"))
        rules = table_of([(plural, 1), (rule_of(("i", "e", "x")), 9)])
        cfg = NoiseFilterConfig(rule_prob_threshold=0.5, min_len={1: 1, 2: 1, 3: 1})
        assert FormationGenerator({"cat", "cats"}, rules, cfg=cfg).generate("cat") == []

    def test_surface_length_floor_scales_with_distance(self):
        rules = table_of([(rule_of(("i", "e", "s")), 1)])
        cfg = NoiseFilterConfig(rule_prob_threshold=0.0, min_len={1: 5, 2: 5, 3: 6})
        got = FormationGenerator({"cat", "cats"}, rules, cfg=cfg).generate("cat")
        assert got == []
        cfg = NoiseFilterConfig(rule_prob_threshold=0.0, min_len={1: 4, 2: 5, 3: 6})
        got = FormationGenerator({"cat", "cats"}, rules, cfg=cfg).generate("cat")
        assert [c.surface for c in got] == ["cats"]

    def test_missing_min_len_entry_is_an_error(self):
        rules = RuleTable.empty(3)
        with pytest.raises(ValueError, match="min_len"):
            FormationGenerator(
                {"cat"}, rules, cfg=NoiseFilterConfig(min_len={1: 4, 2: 5})
            )

    def test_word_never_generates_itself(self):
        rules = table_of([(rule_of(("i", "e", "s")), 1)])
        cfg = NoiseFilterConfig(rule_prob_threshold=0.0, min_len={1: 1, 2: 1, 3: 1})
        got = FormationGenerator({"cats"}, rules, cfg=cfg).generate("cats")
        assert got == []

    def test_results_sorted_by_probability_then_surface(self):
        vocab = {"hal", "ahal", "bhal", "halc"}
        rules = table_of(
            [
                (rule_of(("i", "b", "a")), 2),
                (rule_of(("i", "b", "b")), 2),
                (rule_of(("i", "e", "c")), 4),
            ]
        )
        cfg = NoiseFilterConfig(rule_prob_threshold=0.0, min_len={1: 1, 2: 1, 3: 1})
        got = FormationGenerator(vocab, rules, cfg=cfg).generate("hal")
        assert [c.surface for c in got] == ["halc", "ahal", "bhal"]

    def test_pos_tags_route_rule_lookup(self):
        lex = PosLexicon({"cat": "N"})
        plural_n = rule_of(("i", "e", "s"), tag="N")
        rules = table_of([(plural_n, 1)])
        cfg = NoiseFilterConfig(rule_prob_threshold=0.5, min_len={1: 1, 2: 1, 3: 1})
        got = FormationGenerator({"cat", "cats"}, rules, lex, cfg).generate("cat")
        assert [c.rule for c in got] == [plural_n]
        # Without the lexicon the word tags UNK and the N-only rule never fires.
        assert FormationGenerator({"cat", "cats"}, rules, cfg=cfg).generate("cat") == []

    def test_unknown_characters_count_toward_distance(self):
        rules = table_of([(rule_of(("i", "e", "s")), 1)])
        cfg = NoiseFilterConfig(rule_prob_threshold=0.0, min_len={1: 1, 2: 1, 3: 1})
        gen = FormationGenerator({"cats"}, rules, cfg=cfg)
        assert gen.generate("caxyzt") == []

    def test_generate_matches_bruteforce_on_the_synthetic_world(self):
        vocab = sorted(index_of(build_world().documents).vocabulary)
        rules = mine_rules(vocab)
        gen_zero = FormationGenerator(vocab, rules, cfg=NoiseFilterConfig(rule_prob_threshold=0.0))
        gen_default = FormationGenerator(vocab, rules)
        k = rules.k_max
        # Two words lie within indel distance k exactly when deleting at most
        # k characters in all from the two leaves a common subsequence.
        holders: dict[str, set[str]] = {}
        for word in vocab:
            for kept in range(max(0, len(word) - k), len(word) + 1):
                for idx in itertools.combinations(range(len(word)), kept):
                    holders.setdefault("".join(word[i] for i in idx), set()).add(word)
        distances = {(a, b): indel_distance_lcs(a, b)
                     for common, group in holders.items() for a in group for b in group
                     if a < b and len(a) + len(b) - 2 * len(common) <= k}

        def distance(a, b):  # the LCS identity up to k, and above k beyond it
            return distances.get((a, b) if a < b else (b, a), k + 1)

        found = 0
        for gen in (gen_zero, gen_default):
            for w in vocab:
                got = gen.generate(w)
                assert got == generate_formations_bruteforce(
                    w, vocab, rules, gen.cfg, gen.med.k_max, distance=distance)
                found += len(got)
        assert found > 0

    def test_tightening_either_knob_only_shrinks(self):
        rng = random.Random(32)
        vocab = {"".join(rng.choice("ab") for _ in range(rng.randint(3, 6)))
                 for _ in range(40)}
        rules = mine_rules(vocab)
        word = sorted(vocab)[0]
        loose = NoiseFilterConfig(rule_prob_threshold=0.0, min_len={1: 0, 2: 0, 3: 0})
        base = {c.surface for c in FormationGenerator(vocab, rules, cfg=loose).generate(word)}
        for tau in (0.01, 0.05, 0.2, 0.9):
            cfg = NoiseFilterConfig(rule_prob_threshold=tau, min_len={1: 0, 2: 0, 3: 0})
            got = {c.surface for c in FormationGenerator(vocab, rules, cfg=cfg).generate(word)}
            assert got <= base
        for floor in (4, 5, 6, 9):
            cfg = NoiseFilterConfig(
                rule_prob_threshold=0.0,
                min_len={1: floor, 2: floor, 3: floor},
            )
            got = {c.surface for c in FormationGenerator(vocab, rules, cfg=cfg).generate(word)}
            assert got <= base

    def test_empty_vocabulary(self):
        gen = FormationGenerator(set(), RuleTable.empty(3))
        assert gen.generate("cat") == []


class TestContextFilter:
    def cooc(self):
        return cooc_of([["gato", "gatos", "perro"], ["luna", "sol"]], 5)

    def test_keeps_candidates_seen_with_an_anchor(self):
        cand = FormationCandidate("gatos", "gato", rule_of(("i", "e", "s")), 0.5)
        kept = context_filter([cand], ["perro"], self.cooc())
        assert kept == [cand]

    def test_drops_candidates_with_no_anchor_overlap(self):
        cand = FormationCandidate("gatos", "gato", rule_of(("i", "e", "s")), 0.5)
        assert context_filter([cand], ["sol"], self.cooc()) == []
        assert context_filter([cand], [], self.cooc()) == []

    def test_order_preserved(self):
        c1 = FormationCandidate("gatos", "gato", rule_of(("i", "e", "s")), 0.9)
        c2 = FormationCandidate("perro", "perr", rule_of(("i", "e", "o")), 0.1)
        kept = context_filter([c1, c2], ["gato"], self.cooc())
        assert kept == [c1, c2]


class TestNgramSplit:
    def test_short_terms_pass_through(self):
        assert ngram_split("cat", 5) == ["cat"]
        assert ngram_split("exact", 5) == ["exact"]

    def test_window_slides_one_character(self):
        assert ngram_split("abcdefg", 5) == ["abcde", "bcdef", "cdefg"]

    def test_duplicates_collapse_in_first_seen_order(self):
        assert ngram_split("aaaa", 2) == ["aa"]
        assert ngram_split("abab", 2) == ["ab", "ba"]

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            ngram_split("abc", 0)


class TestStemming:
    def test_identity_without_stemmer(self):
        # Stem mode without a stemmer keeps each candidate as it is, once.
        d = BilingualDictionary({"run": ["running", "ran", "running"]})
        sets = build_candidate_sets(["run"], d, mode="stem")
        assert sets[0].dict_candidates == ["running", "ran"]

    def test_table_stemmer(self, tmp_path):
        path = tmp_path / "stems.tsv"
        path.write_text("running\trun\ncats\tcat\n", encoding="utf-8")
        stem = load_stem_table(path)
        assert stem("running") == "run"
        assert stem("unknown") == "unknown"

    def test_malformed_stem_line(self, tmp_path):
        path = tmp_path / "stems.tsv"
        path.write_text("running\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_stem_table(path)


class TestFormationFiles:
    def test_round_trip(self, tmp_path):
        cands = [
            FormationCandidate("cats", "cat", rule_of(("i", "e", "s"), tag="N"), 0.6),
            FormationCandidate("ashab", "shabe",
                               rule_of(("i", "b", "a"), ("d", "e", "e")), 0.25),
        ]
        path = tmp_path / "formations.tsv"
        save_formations(cands, path)
        assert path.read_text(encoding="utf-8") == (
            "cat\tcats\ti:e:s@N\t0.6\n"
            "shabe\tashab\ti:b:a|d:e:e@UNK\t0.25\n"
        )


class TestNoiseFilterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseFilterConfig(rule_prob_threshold=-0.1)
        with pytest.raises(ValueError):
            NoiseFilterConfig(min_len={0: 4})
        with pytest.raises(ValueError):
            NoiseFilterConfig(min_len={1: -2})

"""Candidate weighting methods and weighted query construction."""

import math
import random

import pytest

from affixgen import disambig
from affixgen.corpus import CooccurrenceTable, Document
from affixgen.disambig import (
    JOINT,
    MUTUAL_INFORMATION,
    PROV_DICTIONARY,
    PROV_FORMATION,
    BilingualDictionary,
    QueryTerm,
    TranslationCandidateSet,
    AssociationModel,
    WeightedQuery,
    baseline_weights,
    build_candidate_sets,
    build_weighted_query,
    init_weights,
    itd_weights,
    joint_weights_2g,
    load_dictionary,
    load_topics,
    load_weighted_queries,
    save_weighted_queries,
    weight_candidate_sets,
)
from affixgen.morphgen import FormationCandidate, NoiseFilterConfig
from affixgen.rules import TransformationRule
from oracles import (
    init_weights_per_term,
    itd_step,
    itd_weights_per_term,
    weights_per_term,
)
from tables import cooc_of, index_of, tables


EMPTY_RULE = TransformationRule((), "UNK")


def formation(surface, source="src", prob=0.5):
    return FormationCandidate(surface, source, EMPTY_RULE, prob)


class StubAssociation:
    """Symmetric association with explicit edge values, zero elsewhere."""

    def __init__(self, edges):
        self.edges = {}
        for (a, b), value in edges.items():
            self.edges[(a, b)] = value
            self.edges[(b, a)] = value

    def edge(self, a, b):
        return self.edges.get((a, b), 0.0)

    def edge_matrix(self, terms):
        return [[self.edge(a, b) for b in terms] for a in terms]


class ConstantAssociation:
    def __init__(self, value):
        self.value = value

    def edge(self, a, b):
        return self.value

    def edge_matrix(self, terms):
        return [[self.edge(a, b) for b in terms] for a in terms]


class TestLoaders:
    def test_dictionary_merges_repeated_sources(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text(
            "cat\tgato, felino\ncat\tgato,minino\ndog\tperro\n", encoding="utf-8"
        )
        d = load_dictionary(path)
        assert d.entries("cat") == ["gato", "felino", "minino"]
        assert d.entries("dog") == ["perro"]
        assert d.entries("bird") == []
        assert len(d) == 2

    def test_dictionary_malformed_line(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("just-one-field\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_dictionary(path)

    def test_topics(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("q1\tfirst query\nq2\tsecond\n", encoding="utf-8")
        assert load_topics(path) == [("q1", "first query"), ("q2", "second")]

    def test_topics_duplicate_id(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("q1\ta\nq1\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            load_topics(path)


class TestAssociationModel:
    def test_joint_probability(self):
        table = cooc_of([["a", "b"]] * 2 + [["p", "q"]] * 8, 2)
        model = AssociationModel(table, JOINT)
        assert model.edge_matrix(["a", "b", "q"]) == [
            [0.0, pytest.approx(0.2), 0.0], [pytest.approx(0.2), 0.0, 0.0], [0.0, 0.0, 0.0]]

    def test_mutual_information_zero_at_independence(self):
        table = cooc_of(
            [["a", "b"]] * 2 + [["a", "x"]] * 2 + [["b", "y"]] * 3 + [["p", "q"]] * 3, 2)
        model = AssociationModel(table, MUTUAL_INFORMATION)
        # pair 2, windows 10, marginals 4 and 5: ln(2*10 / (4*5)) = 0.
        assert model.edge_matrix(["a", "b"]) == [[0.0, 0.0], [0.0, 0.0]]

    def test_mutual_information_positive(self):
        table = cooc_of([["c", "d"]] * 4 + [["p", "q"]] * 6, 2)
        model = AssociationModel(table, MUTUAL_INFORMATION)
        assert model.edge_matrix(["c", "d"])[1][0] == pytest.approx(math.log(2.5))

    def test_mutual_information_clamped_at_zero(self):
        table = cooc_of(
            [["a", "b"]] + [["a", "x"]] * 4 + [["b", "y"]] * 3 + [["p", "q"]] * 2, 2)
        model = AssociationModel(table, MUTUAL_INFORMATION)
        # ln(1*10 / (5*4)) < 0 clamps to zero.
        assert model.edge_matrix(["a", "b"]) == [[0.0, 0.0], [0.0, 0.0]]

    def test_self_association_is_zero(self):
        model = AssociationModel(cooc_of([["a", "a", "b"]], 2), JOINT)
        assert model.edge_matrix(["a", "a"]) == [[0.0, 0.0], [0.0, 0.0]]

    def test_bad_kind_and_empty_table(self):
        table = cooc_of([["a", "b"]], 2)
        with pytest.raises(ValueError, match="kind"):
            AssociationModel(table, "pmi")
        with pytest.raises(ValueError, match="nonempty"):
            AssociationModel(cooc_of([], 2), JOINT)


class TestIterativeWeighting:
    def test_init_weights_uniform_over_all_candidates(self):
        sets = init_weights(
            [
                TranslationCandidateSet("t1", ["a", "b"], [formation("f")]),
                TranslationCandidateSet("t2", ["c"]),
            ]
        )
        assert sets[0].dict_weights == [1 / 3, 1 / 3]
        assert sets[0].formation_weights == [1 / 3]
        assert sets[1].dict_weights == [1.0]

    def test_init_weights_rejects_empty_set(self):
        with pytest.raises(ValueError, match="no candidates"):
            init_weights([TranslationCandidateSet("t1", [])])

    def test_single_iteration_hand_values(self):
        sets = init_weights(
            [
                TranslationCandidateSet("t1", ["a1", "a2"]),
                TranslationCandidateSet("t2", ["b1"]),
            ]
        )
        assoc = StubAssociation({("a1", "b1"): 1.0})
        result = itd_weights(sets, assoc, max_iters=1)
        assert result.sets[0].dict_weights == [0.75, 0.25]
        assert result.sets[1].dict_weights == [1.0]
        assert result.iterations == 1
        assert not result.converged

    def test_uniform_is_fixed_point_of_constant_association(self):
        sets = init_weights(
            [
                TranslationCandidateSet("t1", ["a", "b"]),
                TranslationCandidateSet("t2", ["c", "d", "e", "f"]),
            ]
        )
        result = itd_weights(sets, ConstantAssociation(0.5))
        assert result.sets[0].dict_weights == [0.5, 0.5]
        assert result.sets[1].dict_weights == [0.25] * 4
        assert result.converged
        assert result.iterations == 1
        assert result.final_delta == 0.0

    def test_formation_rows_ignore_other_formations(self):
        fa = formation("fa", "a")
        fb = formation("fb", "b")
        assoc = StubAssociation(
            {("fb", "fa"): 100.0, ("fb", "a"): 1.0, ("b", "fa"): 2.0}
        )

        def sets(fa_weight):
            return [
                TranslationCandidateSet("t1", ["a"], [fa], [0.5], [fa_weight]),
                TranslationCandidateSet("t2", ["b"], [fb], [0.5], [0.5]),
            ]

        d1, f1 = itd_step(sets(0.1), assoc)
        d2, f2 = itd_step(sets(0.4), assoc)
        assert f1[1] == f2[1]
        assert d1[1] != d2[1]

    def test_dict_rows_do_receive_from_other_formations(self):
        fa = formation("fa", "a")
        assoc = StubAssociation({("b", "fa"): 2.0})
        sets = [
            TranslationCandidateSet("t1", ["a"], [fa], [0.5], [0.5]),
            TranslationCandidateSet("t2", ["b"], [], [1.0], []),
        ]
        raw_dict, _ = itd_step(sets, assoc)
        assert raw_dict[1] == [1.0 + 2.0 * 0.5]

    def test_chained_single_iterations_match_full_run(self):
        rng = random.Random(17)
        vocab = sorted(
            {
                "".join(rng.choice("abcdefg") for _ in range(rng.randint(3, 5)))
                for _ in range(40)
            }
        )[:20]
        table = cooc_of(
            [[rng.choice(vocab) for _ in range(rng.randint(4, 12))] for _ in range(30)], 4)
        assoc = AssociationModel(table, MUTUAL_INFORMATION)
        start = init_weights(
            [
                TranslationCandidateSet(f"t{i}", rng.sample(vocab, 5))
                for i in range(5)
            ]
        )
        full = itd_weights(start, assoc, max_iters=8, eps=1e-300)
        state = start
        for _ in range(8):
            state = itd_weights(state, assoc, max_iters=1, eps=1e-300).sets
            for cs in state:
                total = sum(cs.dict_weights) + sum(cs.formation_weights)
                assert math.isclose(total, 1.0, abs_tol=1e-9)
        for a, b in zip(full.sets, state):
            assert a.dict_weights == b.dict_weights
            assert a.formation_weights == b.formation_weights

    def test_converges_on_random_dense_instances(self):
        rng = random.Random(23)
        for _ in range(30):
            edges = {}
            cands = [[f"c{i}{j}" for j in range(5)] for i in range(5)]
            for i, row in enumerate(cands):
                for other in cands[i + 1 :]:
                    for a in row:
                        for b in other:
                            edges[(a, b)] = rng.random()
            assoc = StubAssociation(edges)
            sets = init_weights(
                [TranslationCandidateSet(f"t{i}", cands[i]) for i in range(5)]
            )
            result = itd_weights(sets, assoc)
            assert result.converged
            assert result.iterations <= 50
            assert result.final_delta < 1e-6
            for cs in result.sets:
                assert math.isclose(sum(cs.dict_weights), 1.0, abs_tol=1e-9)

    def test_corpus_derived_instances_keep_weights_normalized(self):
        # Sparse corpus statistics make the update nearly the identity map,
        # which can converge slowly; the per-term distributions must stay
        # normalized regardless.
        rng = random.Random(23)
        for _ in range(5):
            vocab = sorted(
                {
                    "".join(rng.choice("abcdefgh") for _ in range(rng.randint(3, 5)))
                    for _ in range(50)
                }
            )[:25]
            table = cooc_of(
                [[rng.choice(vocab) for _ in range(rng.randint(4, 10))] for _ in range(40)], 4)
            assoc = AssociationModel(table, MUTUAL_INFORMATION)
            sets = init_weights(
                [
                    TranslationCandidateSet(f"t{i}", rng.sample(vocab, 5))
                    for i in range(5)
                ]
            )
            result = itd_weights(sets, assoc)
            assert result.iterations <= 50
            assert result.final_delta < 1e-4
            for cs in result.sets:
                assert math.isclose(sum(cs.dict_weights), 1.0, abs_tol=1e-9)

    def test_edges_are_computed_once_per_query(self):
        calls = []

        class CountingAssociation(StubAssociation):
            def edge_matrix(self, terms):
                calls.append(list(terms))
                return super().edge_matrix(terms)

        assoc = CountingAssociation(
            {("a1", "b1"): 1.0, ("a2", "b2"): 0.5, ("fa", "b1"): 2.0,
             ("a1", "c1"): 0.25, ("b2", "fc"): 1.5}
        )
        sets = init_weights(
            [
                TranslationCandidateSet("t1", ["a1", "a2"], [formation("fa")]),
                TranslationCandidateSet("t2", ["b1", "b2"]),
                TranslationCandidateSet("t3", ["c1"], [formation("fc")]),
            ]
        )
        result = itd_weights(sets, assoc, max_iters=50)
        assert result.iterations > 1
        # One matrix over every slot, dictionary candidates before formations.
        assert calls == [["a1", "a2", "fa", "b1", "b2", "c1", "fc"]]

    def test_parameter_validation(self):
        sets = init_weights([TranslationCandidateSet("t1", ["a"])])
        with pytest.raises(ValueError, match="max_iters"):
            itd_weights(sets, ConstantAssociation(0.0), max_iters=0)
        with pytest.raises(ValueError, match="eps"):
            itd_weights(sets, ConstantAssociation(0.0), eps=0.0)


class TestJointWeighting:
    def table(self):
        return cooc_of([["ax", "bx"]] * 3 + [["ay", "bx"], ["pad", "qad"]], 2)

    def test_hand_weights(self):
        sets = [
            TranslationCandidateSet("t1", ["ax", "ay"]),
            TranslationCandidateSet("t2", ["bx"]),
        ]
        out = joint_weights_2g(sets, AssociationModel(self.table(), JOINT))
        assert out[0].dict_weights == pytest.approx([0.75, 0.25])
        assert out[1].dict_weights == [1.0]

    def test_requires_joint_model(self):
        sets = [TranslationCandidateSet("t1", ["ax"])]
        model = AssociationModel(self.table(), MUTUAL_INFORMATION)
        with pytest.raises(ValueError, match="joint"):
            joint_weights_2g(sets, model)

    def test_single_term_query_is_uniform(self):
        sets = [TranslationCandidateSet("t1", ["ax", "ay", "bx"])]
        out = joint_weights_2g(sets, AssociationModel(self.table(), JOINT))
        assert out[0].dict_weights == pytest.approx([1 / 3] * 3)

    def test_all_zero_scores_fall_back_to_uniform(self):
        sets = [
            TranslationCandidateSet("t1", ["ax", "ay"]),
            TranslationCandidateSet("t2", ["nowhere"]),
        ]
        out = joint_weights_2g(sets, AssociationModel(self.table(), JOINT))
        assert out[0].dict_weights == [0.5, 0.5]
        assert out[1].dict_weights == [1.0]

    def test_zero_score_term_with_formations_is_uniform_over_all_slots(self):
        sets = [
            TranslationCandidateSet("t1", ["ax", "ay"]),
            TranslationCandidateSet("t2", ["bx"]),
            TranslationCandidateSet("t3", ["nowhere"], [formation("nowhere2")]),
        ]
        out = joint_weights_2g(sets, AssociationModel(self.table(), JOINT))
        assert out[0].dict_weights == pytest.approx([0.75, 0.25])
        assert out[2].dict_weights == [0.5]
        assert out[2].formation_weights == [0.5]

    def test_formations_scored_against_dictionary_only(self):
        table = cooc_of([["fb", "fa"]] * 5 + [["fa", "b"], ["a", "x"]], 2)
        sets = [
            TranslationCandidateSet("t1", ["a"], [formation("fa", "a")]),
            TranslationCandidateSet("t2", ["b"], [formation("fb", "b")]),
        ]
        out = joint_weights_2g(sets, AssociationModel(table, JOINT))
        # fb pairs strongly with the formation fa, but formations only score
        # against the other term's dictionary candidates, so fb gets nothing.
        assert out[1].formation_weights == [0.0]
        assert out[1].dict_weights == [1.0]


class TestBaselines:
    def sets(self):
        return [
            TranslationCandidateSet("t1", ["x", "y"], [formation("f")]),
            TranslationCandidateSet("t2", ["z"]),
        ]

    def test_top1(self):
        out = baseline_weights(self.sets(), "top1")
        assert out[0].dict_weights == [1.0, 0.0]
        assert out[0].formation_weights == [0.0]
        assert out[1].dict_weights == [1.0]

    def test_unif(self):
        out = baseline_weights(self.sets(), "unif")
        assert out[0].dict_weights == [0.5, 0.5]
        assert out[0].formation_weights == [0.0]

    def test_collection_frequency(self):
        index = index_of([Document("d1", "x x x y"), Document("d2", "y z")])
        out = baseline_weights(self.sets(), "coll", index)
        assert out[0].dict_weights == pytest.approx([0.6, 0.4])
        assert out[1].dict_weights == [1.0]

    def test_collection_frequency_fallback(self):
        index = index_of([Document("d1", "unrelated words")])
        out = baseline_weights(self.sets(), "coll", index)
        assert out[0].dict_weights == [0.5, 0.5]

    def test_collection_frequency_fallback_leaves_formations_at_zero(self):
        index = index_of([Document("d1", "z z")])
        out = baseline_weights(self.sets(), "coll", index)
        assert out[0].dict_weights == [0.5, 0.5]
        assert out[0].formation_weights == [0.0]
        assert out[1].dict_weights == [1.0]

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            baseline_weights(self.sets(), "idf")
        with pytest.raises(ValueError, match="needs an index"):
            baseline_weights(self.sets(), "coll")
        with pytest.raises(ValueError, match="no dictionary candidates"):
            baseline_weights([TranslationCandidateSet("t1", [])], "unif")


class TestFlatWeightingMatchesPerTerm:
    """The one-row weighting equals the term-by-term weighting bit for bit."""

    def world(self, rng):
        vocab = sorted({"".join(rng.choice("abcde") for _ in range(rng.randint(3, 5)))
                        for _ in range(14)})
        docs = [[rng.choice(vocab) for _ in range(rng.randint(2, 9))]
                for _ in range(rng.randint(1, 6))]
        index, cooc = tables(docs, rng.randint(2, 5))
        # Words outside the collection score zero and have zero frequency.
        words = vocab + ["zzq", "zzr", "zzs"]
        sets = []
        for i in range(rng.randint(1, 4)):
            cands = rng.sample(words, rng.randint(1, 3))
            pool = [w for w in words if w not in cands]
            formations = [formation(w, cands[0]) for w in rng.sample(pool, rng.randint(0, 3))]
            sets.append(TranslationCandidateSet(f"t{i}", cands, formations))
        return index, cooc, sets

    def assert_same(self, got, expected):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.dict_weights == b.dict_weights
            assert a.formation_weights == b.formation_weights

    def test_every_method_on_random_worlds(self):
        rng = random.Random(2020)
        for _ in range(80):
            index, cooc, sets = self.world(rng)
            self.assert_same(init_weights(sets), init_weights_per_term(sets))
            for method in ("itd", "2g", "unif", "top1", "coll"):
                got = weight_candidate_sets(sets, method, index=index, cooc=cooc)
                self.assert_same(got, weights_per_term(sets, method, index=index, cooc=cooc))
            assoc = AssociationModel(cooc, MUTUAL_INFORMATION)
            for max_iters, eps in ((1, 1e-300), (3, 1e-300), (50, 1e-6)):
                got = itd_weights(init_weights(sets), assoc, max_iters, eps)
                expected = itd_weights_per_term(init_weights_per_term(sets), assoc,
                                                max_iters, eps)
                self.assert_same(got.sets, expected.sets)
                assert (got.iterations, got.converged, got.final_delta) == (
                    expected.iterations, expected.converged, expected.final_delta)

    def test_itd_on_random_edges_with_zeros(self):
        rng = random.Random(2021)
        for _ in range(60):
            names = [[f"c{i}{j}" for j in range(rng.randint(1, 4))]
                     for i in range(rng.randint(1, 4))]
            sets = [TranslationCandidateSet(f"t{i}", row[:1 + len(row) // 2],
                                            [formation(f) for f in row[1 + len(row) // 2:]])
                    for i, row in enumerate(names)]
            flat = [n for row in names for n in row]
            assoc = StubAssociation({(a, b): rng.choice([0.0, rng.random(), 3 * rng.random()])
                                     for a in flat for b in flat if a < b})
            got = itd_weights(init_weights(sets), assoc)
            expected = itd_weights_per_term(init_weights_per_term(sets), assoc)
            self.assert_same(got.sets, expected.sets)
            assert (got.iterations, got.converged, got.final_delta) == (
                expected.iterations, expected.converged, expected.final_delta)

    def test_coll_with_a_zero_frequency_term_beside_a_scored_one(self):
        index, cooc = tables([["x", "x", "y"], ["y", "w"]], 2)
        sets = [
            TranslationCandidateSet("t1", ["x", "y"], [formation("w")]),
            TranslationCandidateSet("t2", ["zzq", "zzr"], [formation("x")]),
        ]
        got = weight_candidate_sets(sets, "coll", index=index, cooc=cooc)
        self.assert_same(got, weights_per_term(sets, "coll", index=index, cooc=cooc))
        assert got[0].dict_weights == [0.5, 0.5]
        assert got[1].dict_weights == [0.5, 0.5]
        assert got[0].formation_weights == got[1].formation_weights == [0.0]


class StubGenerator:
    def __init__(self, pools, cfg):
        self.pools = pools
        self.cfg = cfg

    def generate(self, w):
        return list(self.pools.get(w, []))


class TestCandidateSets:
    def test_dictionary_and_oov_passthrough(self):
        d = BilingualDictionary({"cat": ["gato", "felino"]})
        sets = build_candidate_sets(["cat", "zyx"], d)
        assert sets[0].dict_candidates == ["gato", "felino"]
        assert sets[1].dict_candidates == ["zyx"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="morphology mode"):
            build_candidate_sets(["cat"], BilingualDictionary(), mode="lemmatise")

    def test_stem_mode_dedupes(self):
        d = BilingualDictionary({"run": ["running", "runs", "ran"]})
        stemmer = {"running": "run", "runs": "run"}.get
        sets = build_candidate_sets(
            ["run"], d, mode="stem", stemmer=lambda t: stemmer(t, t)
        )
        assert sets[0].dict_candidates == ["run", "ran"]

    def test_ag_mode_needs_generator(self):
        with pytest.raises(ValueError, match="generator"):
            build_candidate_sets(["cat"], BilingualDictionary(), mode="ag")

    def test_ag_dedupes_surfaces_keeping_best_probability(self):
        cfg = NoiseFilterConfig(require_context=False, min_len={1: 1, 2: 1, 3: 1})
        gen = StubGenerator(
            {
                "a": [formation("x", "a", 0.3)],
                "b": [
                    formation("x", "b", 0.7),
                    formation("y", "b", 0.1),
                    formation("a", "b", 0.9),
                ],
            },
            cfg,
        )
        d = BilingualDictionary({"pet": ["a", "b"]})
        sets = build_candidate_sets(["pet"], d, mode="ag", generator=gen)
        # "a" is already a dictionary candidate and never re-enters as a
        # formation; "x" keeps its best-probability source.
        assert sets[0].formations == [
            formation("x", "b", 0.7),
            formation("y", "b", 0.1),
        ]

    def test_ag_context_filter_and_window_check(self):
        cfg = NoiseFilterConfig(
            require_context=True, min_len={1: 1, 2: 1, 3: 1}, context_window=3
        )
        gen = StubGenerator(
            {"gato": [formation("gatos", "gato", 0.5),
                      formation("gatic", "gato", 0.4)]},
            cfg,
        )
        d = BilingualDictionary({"cat": ["gato"]})
        cooc = cooc_of([["gato", "gatos"], ["gatic", "luna"]], 3)
        sets = build_candidate_sets(["cat"], d, mode="ag", generator=gen, cooc=cooc)
        # "gatos" co-occurs with the anchor "gato"; "gatic" never does.
        assert [f.surface for f in sets[0].formations] == ["gatos"]

        with pytest.raises(ValueError, match="needs a co-occurrence"):
            build_candidate_sets(["cat"], d, mode="ag", generator=gen)
        wrong = cooc_of([["gato", "gatos"]], 5)
        with pytest.raises(ValueError, match="does not match"):
            build_candidate_sets(
                ["cat"], d, mode="ag", generator=gen, cooc=wrong
            )


class TestWeightedQueries:
    def test_uniform_translation_shares(self):
        d = BilingualDictionary({"q1": ["a", "b"], "q2": ["c"]})
        q = build_weighted_query("7", ["q1", "q2"], d, weighting="unif")
        assert q.query_id == "7"
        assert q.as_distribution() == pytest.approx({"a": 0.25, "b": 0.25, "c": 0.5})
        assert {qt.provenance for qt in q.terms} == {PROV_DICTIONARY}

    def test_zero_weight_candidates_are_dropped(self):
        d = BilingualDictionary({"q1": ["a", "b"]})
        q = build_weighted_query("7", ["q1"], d, weighting="top1")
        assert [qt.term for qt in q.terms] == ["a"]
        assert q.terms[0].weight == 1.0

    def test_repeated_surfaces_merge(self):
        d = BilingualDictionary({"q1": ["a"], "q2": ["a", "c"]})
        q = build_weighted_query("7", ["q1", "q2"], d, weighting="unif")
        assert q.as_distribution() == pytest.approx({"a": 0.75, "c": 0.25})

    def test_oov_passthrough_weight(self):
        q = build_weighted_query("7", ["zyx"], BilingualDictionary())
        assert q.terms == [QueryTerm("zyx", 1.0, PROV_DICTIONARY)]

    def test_split_mode_distributes_over_fragments(self):
        d = BilingualDictionary({"q1": ["abcdef"], "q2": ["gh"]})
        q = build_weighted_query(
            "7", ["q1", "q2"], d, mode="split", weighting="unif", ngram_n=5
        )
        assert q.as_distribution() == pytest.approx(
            {"abcde": 0.25, "bcdef": 0.25, "gh": 0.5}
        )

    def test_stem_mode_merges_candidates(self):
        d = BilingualDictionary({"q1": ["running", "runs"]})
        table = {"running": "run", "runs": "run"}
        q = build_weighted_query(
            "7", ["q1"], d, mode="stem", stemmer=lambda t: table.get(t, t)
        )
        assert q.terms == [QueryTerm("run", 1.0, PROV_DICTIONARY)]

    def test_ag_mode_formation_provenance_and_mass(self):
        cfg = NoiseFilterConfig(require_context=False, min_len={1: 1, 2: 1, 3: 1})
        gen = StubGenerator({"gato": [formation("gatos", "gato", 0.5)]}, cfg)
        d = BilingualDictionary({"cat": ["gato"]})
        cooc = cooc_of([["gato", "gatos"]], 10)
        q = build_weighted_query(
            "7", ["cat"], d, mode="ag", weighting="2g", generator=gen, cooc=cooc
        )
        assert q.as_distribution() == pytest.approx({"gato": 0.5, "gatos": 0.5})
        prov = {qt.term: qt.provenance for qt in q.terms}
        assert prov == {"gato": PROV_DICTIONARY, "gatos": PROV_FORMATION}

    def test_pair_counts_shared_within_a_query(self, monkeypatch):
        calls = []
        count = CooccurrenceTable.pair_counts

        def counting(self, terms):
            calls.append(list(terms))
            return count(self, terms)

        rng = random.Random(43)
        words = ["gato", "gatos", "perro", "perros", "luna", "lunas", "sol"]
        docs = [[rng.choice(words) for _ in range(6)] for _ in range(20)]
        index, table = index_of(docs), cooc_of(docs, 4)
        cfg = NoiseFilterConfig(context_window=4, min_len={1: 1, 2: 1, 3: 1})
        gen = StubGenerator({"gato": [formation("gatos", "gato")],
                             "perro": [formation("perros", "perro")],
                             "luna": [formation("lunas", "luna")]}, cfg)
        d = BilingualDictionary({"cat": ["gato", "sol"], "dog": ["perro"], "moon": ["luna"]})

        def query(mode, weighting):
            calls.clear()
            return build_weighted_query("7", ["cat", "dog", "moon"], d, mode=mode,
                                        weighting=weighting, index=index, cooc=table,
                                        generator=gen)

        monkeypatch.setattr(CooccurrenceTable, "pair_counts", counting)
        assert any(qt.provenance == PROV_FORMATION for qt in query("ag", "itd").terms)
        # The context filter over every formation and the anchors, then the weighting.
        assert calls[0] == ["gatos", "perros", "lunas", "gato", "luna", "perro", "sol"]
        assert len(calls) == 2
        for mode, weighting, made in [("ag", "2g", 2), ("ag", "unif", 1), ("none", "itd", 1),
                                      ("none", "2g", 1), ("none", "top1", 0),
                                      ("none", "unif", 0), ("none", "coll", 0)]:
            query(mode, weighting)
            assert len(calls) == made, (mode, weighting)

    def test_distribution_sums_to_one(self):
        rng = random.Random(41)
        words = [
            "".join(rng.choice("abcde") for _ in range(4)) for _ in range(30)
        ]
        d = BilingualDictionary(
            {f"s{i}": rng.sample(words, rng.randint(1, 4)) for i in range(8)}
        )
        table = cooc_of([[rng.choice(words) for _ in range(6)] for _ in range(25)], 4)
        for weighting in ("unif", "top1", "itd", "2g"):
            q = build_weighted_query(
                "7",
                [f"s{i}" for i in range(8)],
                d,
                weighting=weighting,
                cooc=table,
            )
            assert math.isclose(
                sum(qt.weight for qt in q.terms), 1.0, abs_tol=1e-9
            )

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError, match="no terms"):
            build_weighted_query("7", [], BilingualDictionary())

    def test_unknown_weighting_rejected(self):
        sets = [TranslationCandidateSet("t1", ["a"])]
        with pytest.raises(ValueError, match="weighting method"):
            weight_candidate_sets(sets, "bm25")
        with pytest.raises(ValueError, match="co-occurrence"):
            weight_candidate_sets(sets, "itd")

    def test_save_load_round_trip(self, tmp_path):
        queries = [
            WeightedQuery(
                "1",
                [QueryTerm("a", 0.75, PROV_DICTIONARY),
                 QueryTerm("b", 0.25, PROV_FORMATION)],
            ),
            WeightedQuery("2", [QueryTerm("c", 1.0, PROV_DICTIONARY)]),
        ]
        path = tmp_path / "queries.tsv"
        save_weighted_queries(queries, path)
        assert load_weighted_queries(path) == queries

    def test_load_rejects_malformed_and_empty(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("1\ta\t0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_weighted_queries(path)
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no queries"):
            load_weighted_queries(path)

    def test_load_names_the_line_of_a_malformed_weight(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("1\ta\t0.5\tdictionary\n1\tb\tnotanumber\tdictionary\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}: line 2: .*'notanumber'"):
            load_weighted_queries(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "-0.5", "NaN", "Infinity"])
    def test_load_rejects_a_weight_that_is_not_finite_or_negative(self, tmp_path, weight):
        path = tmp_path / "queries.tsv"
        path.write_text(f"1\ta\t0.5\tdictionary\n1\tb\t{weight}\tdictionary\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}: line 2: weight '{weight}' is not"):
            load_weighted_queries(path)

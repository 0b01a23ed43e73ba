"""Dirichlet-smoothed retrieval, feedback, evaluation, and significance."""

import math
import random
import re

import numpy as np
import pytest
import scipy.stats

from affixgen.corpus import Document
from affixgen.disambig import PROV_DICTIONARY, PROV_FEEDBACK, QueryTerm, WeightedQuery
from affixgen.retrieval import (
    RECALL_LEVELS,
    EvalResult,
    Qrels,
    RetrievalConfig,
    RunFile,
    evaluate,
    feedback_model,
    load_qrels,
    load_run,
    paired_ttest,
    prf_mixture,
    run_queries,
    save_eval,
    save_run,
    score_kl,
)
from oracles import (
    average_precision_bruteforce,
    feedback_model_em,
    interpolated_precision_bruteforce,
    kl_score_bruteforce,
    mixture_loglikelihood,
    precision_at_k_bruteforce,
)
from tables import index_of


def query(qid, dist, prov=PROV_DICTIONARY):
    return WeightedQuery(qid, [QueryTerm(t, w, prov) for t, w in dist.items()])


def random_collection(rng, num_docs=8, vocab="abcde", max_len=12):
    docs = []
    for i in range(num_docs):
        tokens = [rng.choice(vocab) for _ in range(rng.randint(1, max_len))]
        docs.append(Document(f"d{chr(ord('a') + i)}", " ".join(tokens)))
    return docs


class TestRetrievalConfig:
    def test_defaults_valid(self):
        cfg = RetrievalConfig()
        assert cfg.mu == 1000.0 and cfg.top_k == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(mu=0)
        with pytest.raises(ValueError):
            RetrievalConfig(top_k=0)
        with pytest.raises(ValueError):
            RetrievalConfig(prf_lambda=1.5)
        with pytest.raises(ValueError):
            RetrievalConfig(prf_noise=-0.1)
        with pytest.raises(ValueError):
            RetrievalConfig(prf_docs=0)


class TestScoreKl:
    def three_doc_index(self):
        return index_of(
            [
                Document("d1", "apple banana apple"),
                Document("d2", "banana cherry"),
                Document("d3", "cherry cherry cherry apple"),
            ]
        )

    def test_hand_computed_scores(self):
        # cf: apple 3, banana 2, cherry 4; 9 tokens total; mu = 10.
        index = self.three_doc_index()
        q = query("q", {"apple": 0.6, "cherry": 0.4})
        mu = 10.0
        expected = {
            "d1": 0.6 * math.log((2 + mu * 3 / 9) / (3 + mu))
            + 0.4 * math.log((0 + mu * 4 / 9) / (3 + mu)),
            "d2": 0.6 * math.log((0 + mu * 3 / 9) / (2 + mu))
            + 0.4 * math.log((1 + mu * 4 / 9) / (2 + mu)),
            "d3": 0.6 * math.log((1 + mu * 3 / 9) / (4 + mu))
            + 0.4 * math.log((3 + mu * 4 / 9) / (4 + mu)),
        }
        got = dict(score_kl(q, index, RetrievalConfig(mu=mu)))
        assert set(got) == set(expected)
        for doc_id, score in expected.items():
            assert got[doc_id] == pytest.approx(score, abs=1e-9)

    def test_matches_bruteforce_on_random_collections(self):
        rng = random.Random(51)
        for _ in range(40):
            docs = random_collection(rng)
            index = index_of(docs)
            token_docs = {d.doc_id: d.text.split() for d in docs}
            dist = {
                rng.choice("abcdefg"): rng.random() for _ in range(rng.randint(1, 4))
            }
            total = sum(dist.values())
            dist = {t: w / total for t, w in dist.items()}
            mu = rng.choice([1.0, 10.0, 250.0])
            expected = kl_score_bruteforce(dist, token_docs, mu)
            got = dict(score_kl(query("q", dist), index, RetrievalConfig(mu=mu)))
            assert set(got) == set(expected)
            for doc_id in expected:
                assert got[doc_id] == pytest.approx(expected[doc_id], abs=1e-12)

    def test_ties_break_by_ascending_doc_id(self):
        index = index_of(
            [Document("db", "x y"), Document("da", "x y"), Document("dc", "z z")]
        )
        ranking = score_kl(query("q", {"x": 1.0}), index)
        assert [doc for doc, _ in ranking[:2]] == ["da", "db"]
        assert ranking[0][1] == ranking[1][1]

    def test_top_k_truncates(self):
        index = self.three_doc_index()
        ranking = score_kl(query("q", {"apple": 1.0}), index, RetrievalConfig(top_k=2))
        assert len(ranking) == 2

    def test_unseen_terms_contribute_nothing(self):
        index = self.three_doc_index()
        with_oov = query("q", {"apple": 0.5, "zzz": 0.5})
        without = query("q", {"apple": 0.5})
        assert score_kl(with_oov, index) == score_kl(without, index)

    def test_empty_inputs_rejected(self):
        index = self.three_doc_index()
        with pytest.raises(ValueError, match="empty"):
            score_kl(WeightedQuery("q", []), index)
        with pytest.raises(ValueError, match="empty index"):
            score_kl(query("q", {"a": 1.0}), index_of([]))


def assert_exact_mle(counts, index, noise, em_ll):
    """``feedback_model`` meets the optimality conditions of the mixture.

    The marginal gain of feedback mass on term t is (1 - noise) * c_t / mix_t.
    Every kept term has the same marginal and no dropped term a larger one
    (KKT). The tolerances cover rounding: p_t = c_t / nu - r * q_t cancels
    digits when r = noise / (1 - noise) is near 1e6, about r * 2.2e-16.
    """
    probs = feedback_model(counts, index, noise)
    p_coll = {t: index.p_collection(t) for t in counts}
    assert set(probs) <= set(counts)
    assert all(p > 0.0 for p in probs.values())
    assert math.fsum(probs.values()) == pytest.approx(1.0, abs=1e-9)
    marginal = {
        t: (1.0 - noise) * c / ((1.0 - noise) * probs.get(t, 0.0) + noise * p_coll[t])
        for t, c in counts.items()
    }
    level = max(marginal[t] for t in probs)
    for t in counts:
        if t in probs:
            assert marginal[t] == pytest.approx(level, rel=1e-9)
        else:
            assert marginal[t] <= level * (1.0 + 1e-9)
    ll = mixture_loglikelihood(counts, p_coll, noise, probs)
    assert ll >= em_ll - 1e-14 * max(1.0, abs(em_ll))


class TestFeedback:
    def test_noiseless_fit_recovers_count_proportions(self):
        index = index_of([Document("d1", "a a b"), Document("d2", "c c c c")])
        probs = feedback_model({"a": 2, "b": 1}, index, noise=0.0)
        assert probs["a"] == pytest.approx(2 / 3, abs=1e-12)
        assert probs["b"] == pytest.approx(1 / 3, abs=1e-12)

    def test_pure_noise_returns_uniform(self):
        index = index_of([Document("d1", "a a b")])
        probs = feedback_model({"a": 2, "b": 1}, index, noise=1.0)
        assert probs == {"a": 0.5, "b": 0.5}

    def test_loglikelihood_never_decreases(self):
        # Of the oracle EM that the exact solution is checked against.
        rng = random.Random(61)
        for _ in range(20):
            docs = random_collection(rng, num_docs=5)
            index = index_of(docs)
            counts = {
                t: rng.randint(1, 6)
                for t in rng.sample(sorted(index.collection_freq), 4)
            }
            p_coll = {t: index.p_collection(t) for t in counts}
            _, history, converged = feedback_model_em(
                counts, p_coll, noise=rng.uniform(0.1, 0.9)
            )
            assert converged
            for earlier, later in zip(history, history[1:]):
                assert later >= earlier - 1e-9

    @pytest.mark.parametrize("noise", [0.0, 1e-6, 0.5, 1.0 - 1e-6, 1.0])
    def test_exact_solution_matches_converged_em(self, noise):
        rng = random.Random(63)
        for _ in range(40):
            docs = random_collection(rng, num_docs=6, vocab="abcdefghij", max_len=15)
            index = index_of(docs)
            vocab = sorted(index.collection_freq)
            counts = {
                t: rng.randint(1, 9)
                for t in rng.sample(vocab, rng.randint(1, min(8, len(vocab))))
            }
            p_coll = {t: index.p_collection(t) for t in counts}
            _, history, converged = feedback_model_em(counts, p_coll, noise)
            assert converged
            assert_exact_mle(counts, index, noise, history[-1])

    @pytest.mark.parametrize(
        "counts, cf, noise, expected",
        [
            # nu = 17.5, and "b" sits exactly on the support boundary: p_b = 0.
            ({"e": 3, "g": 1, "b": 2, "i": 6, "d": 1, "a": 4, "j": 4, "c": 8},
             {"e": 2, "g": 5, "b": 4, "i": 3, "d": 4, "a": 5, "j": 3, "c": 2,
              "z": 7}, 0.5,
             {"c": 14 / 35, "i": 9 / 35, "j": 5 / 35, "e": 4 / 35, "a": 3 / 35}),
            # "e" and "g" tie on the top c_t / q_t.
            ({"b": 2, "g": 3, "f": 3, "e": 4},
             {"b": 8, "g": 6, "f": 8, "e": 8, "z": 27}, 1.0 - 1e-6,
             {"e": 4 / 7, "g": 3 / 7}),
        ],
    )
    def test_exact_solution_where_em_crawls(self, counts, cf, noise, expected):
        # EM's log-likelihood levels off here while its probabilities are
        # still far from the optimum (0.5 against 4/7 on the tie).
        index = index_of(
            [Document(t, " ".join([t] * n)) for t, n in sorted(cf.items())]
        )
        assert feedback_model(counts, index, noise) == pytest.approx(expected, abs=1e-9)
        p_coll = {t: index.p_collection(t) for t in counts}
        _, history, converged = feedback_model_em(counts, p_coll, noise)
        assert converged
        assert_exact_mle(counts, index, noise, history[-1])

    def test_empty_counts_rejected(self):
        index = index_of([Document("d1", "a")])
        with pytest.raises(ValueError, match="no feedback"):
            feedback_model({}, index, noise=0.5)

    def test_feedback_counts_are_exact(self):
        # Terms span document frequencies below and above prf_docs, and some
        # rankings are shorter than prf_docs.
        rng = random.Random(64)
        for _ in range(60):
            docs = random_collection(rng, num_docs=12, vocab="aaaabbbcdefgh", max_len=10)
            index = index_of(docs)
            prf_docs = rng.randint(1, 8)
            ranked = rng.sample([d.doc_id for d in docs], rng.randint(1, 12))
            ranking = [(doc_id, -float(i)) for i, doc_id in enumerate(ranked)]
            tokens = {d.doc_id: d.text.split() for d in docs}
            tally = {}
            for doc_id in ranked[:prf_docs]:
                for t in tokens[doc_id]:
                    tally[t] = tally.get(t, 0) + 1
            total = sum(tally.values())
            cfg = RetrievalConfig(prf_docs=prf_docs, prf_terms=len(index.postings),
                                  prf_lambda=1.0, prf_noise=0.0)
            expanded = prf_mixture(ranking, index, cfg, query("q", {"zzz": 1.0}))
            dist = expanded.as_distribution()
            assert set(dist) == set(tally)
            for t, c in tally.items():
                assert dist[t] == pytest.approx(c / total, abs=1e-12)

    def test_zero_lambda_returns_query_untouched(self):
        index = index_of([Document("d1", "x x y")])
        q = query("q", {"x": 1.0})
        cfg = RetrievalConfig(prf_lambda=0.0)
        assert prf_mixture([("d1", -1.0)], index, cfg, q) is q

    def test_interpolation_hand_values(self):
        index = index_of([Document("d1", "x x y")])
        q = query("q", {"x": 1.0})
        cfg = RetrievalConfig(mu=10, prf_docs=1, prf_lambda=0.5, prf_noise=0.0)
        expanded = prf_mixture([("d1", -1.0)], index, cfg, q)
        dist = expanded.as_distribution()
        # Feedback model is {x: 2/3, y: 1/3}; interpolate half and half.
        assert dist["x"] == pytest.approx(0.5 + 0.5 * 2 / 3, abs=1e-12)
        assert dist["y"] == pytest.approx(0.5 * 1 / 3, abs=1e-12)
        prov = {qt.term: qt.provenance for qt in expanded.terms}
        assert prov == {"x": PROV_DICTIONARY, "y": PROV_FEEDBACK}

    def test_feedback_vocabulary_truncation(self):
        index = index_of([Document("d1", "x x x y z")])
        q = query("q", {"x": 1.0})
        cfg = RetrievalConfig(mu=10, prf_docs=1, prf_terms=1, prf_lambda=0.5,
                              prf_noise=0.0)
        expanded = prf_mixture([("d1", -1.0)], index, cfg, q)
        # Only the strongest feedback term survives, renormalized to mass 1.
        assert expanded.as_distribution() == pytest.approx({"x": 1.0})

    def test_run_queries_with_and_without_feedback(self):
        rng = random.Random(62)
        docs = random_collection(rng, num_docs=6)
        index = index_of(docs)
        queries = [query("q1", {"a": 0.7, "b": 0.3}), query("q2", {"c": 1.0})]
        plain = run_queries(queries, index, RetrievalConfig(mu=50), run_tag="t")
        assert plain.run_tag == "t"
        assert set(plain.rankings) == {"q1", "q2"}
        assert plain.rankings["q1"] == score_kl(queries[0], index,
                                                RetrievalConfig(mu=50))
        fb = run_queries(queries, index, RetrievalConfig(mu=50), prf=True)
        assert set(fb.rankings) == {"q1", "q2"}
        for ranking in fb.rankings.values():
            scores = [s for _, s in ranking]
            assert scores == sorted(scores, reverse=True)


    def test_top_k_below_prf_docs_keeps_every_feedback_document(self):
        rng = random.Random(65)
        docs = random_collection(rng, num_docs=10)
        index = index_of(docs)
        q = query("q1", {"a": 0.6, "b": 0.4})
        cfg = RetrievalConfig(mu=50, top_k=2, prf_docs=6)
        first = score_kl(q, index, RetrievalConfig(mu=50, prf_docs=6))
        expanded = prf_mixture(first, index, cfg, q)
        run = run_queries([q], index, cfg, prf=True)
        assert run.rankings["q1"] == score_kl(expanded, index, cfg)
        assert len(run.rankings["q1"]) == 2

class TestRunAndQrelsFiles:
    def test_run_round_trip(self, tmp_path):
        run = RunFile("tag", {"q1": [("d2", -1.0), ("d1", -2.5)],
                              "q2": [("d3", -0.25)]})
        path = tmp_path / "run.txt"
        save_run(run, path)
        loaded = load_run(path)
        assert loaded.run_tag == "tag"
        assert loaded.rankings == run.rankings

    @pytest.mark.parametrize(
        "run, bad",
        [
            (RunFile("my run", {"q1": [("d1", -1.0)]}), "my run"),
            (RunFile("tag", {"q 1": [("d1", -1.0)]}), "q 1"),
            (RunFile("tag", {"q1": [("d1", -1.0), ("doc\t2", -2.0)]}), "doc\t2"),
            (RunFile("tag", {"q1": [("", -1.0)]}), ""),
        ],
    )
    def test_save_run_rejects_fields_it_cannot_read_back(self, tmp_path, run, bad):
        path = tmp_path / "run.txt"
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            save_run(run, path)
        assert not path.exists()

    def test_run_validation(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 -1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            load_run(path)
        path.write_text("q1 Q0 d1 2 -1.0 tag\n", encoding="utf-8")
        with pytest.raises(ValueError, match="rank sequence"):
            load_run(path)
        path.write_text("q1 Q0 d1 1 -2.0 tag\nq1 Q0 d2 2 -1.0 tag\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="increase"):
            load_run(path)
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no run entries"):
            load_run(path)

    def test_qrels_positive_grades_only(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text(
            "q1 0 d1 1\nq1 0 d2 0\nq2 0 d3 2\nq3 0 d4 0\n", encoding="utf-8"
        )
        qrels = load_qrels(path)
        assert qrels.relevant == {"q1": {"d1"}, "q2": {"d3"}, "q3": set()}

    def test_qrels_validation(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            load_qrels(path)
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no judgments"):
            load_qrels(path)

    def test_qrels_malformed_grade_names_the_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d2 x\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: ") + ".*'x'"):
            load_qrels(path)

    def test_run_malformed_number_names_the_line(self, tmp_path):
        path = tmp_path / "run.txt"
        for line in ("q1 Q0 d2 one -2.0 tag", "q1 Q0 d2 2 low tag"):
            path.write_text(f"q1 Q0 d1 1 -1.0 tag\n{line}\n", encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: ")):
                load_run(path)

    def test_run_repeated_document_rejected(self, tmp_path):
        # Counted twice, one relevant document would give an AP of 2.
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 -1.0 t\nq2 Q0 d1 1 -1.0 t\nq1 Q0 d1 2 -2.0 t\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 3: document 'd1' is already ranked for query 'q1'")):
            load_run(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN"])
    def test_run_non_finite_score_rejected(self, tmp_path, score):
        # A nan between -1.0 and -0.5 would hide the increase between them.
        path = tmp_path / "run.txt"
        path.write_text(f"q1 Q0 d1 1 -1.0 t\nq1 Q0 d2 2 {score} t\nq1 Q0 d3 3 -0.5 t\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 2: score '{score}' is not finite")):
            load_run(path)


class TestEvaluate:
    def test_partial_retrieval_hand_values(self):
        run = RunFile("t", {"q1": [("d1", -1.0), ("d9", -2.0)]})
        qrels = Qrels({"q1": {"d1", "d2"}})
        result = evaluate(run, qrels)
        qe = result.per_query["q1"]
        assert qe.ap == pytest.approx(0.5)
        assert qe.p5 == pytest.approx(0.2)
        assert qe.p10 == pytest.approx(0.1)
        assert qe.interpolated[:6] == pytest.approx((1.0,) * 6)
        assert qe.interpolated[6:] == pytest.approx((0.0,) * 5)

    def test_single_relevant_at_rank_one_is_perfect(self):
        run = RunFile("t", {"q1": [("d1", -1.0), ("d2", -2.0)]})
        result = evaluate(run, Qrels({"q1": {"d1"}}))
        assert result.map == 1.0
        assert result.per_query["q1"].interpolated == (1.0,) * 11

    def test_matches_definition_oracles_on_random_runs(self):
        rng = random.Random(71)
        doc_ids = [f"d{chr(ord('a') + i)}" for i in range(20)]
        for _ in range(120):
            depth = rng.randint(1, 15)
            ranked_ids = rng.sample(doc_ids, depth)
            ranking = [(doc, -float(i)) for i, doc in enumerate(ranked_ids)]
            relevant = set(rng.sample(doc_ids, rng.randint(1, 6)))
            run = RunFile("t", {"q": ranking})
            result = evaluate(run, Qrels({"q": relevant}))
            qe = result.per_query["q"]
            assert qe.ap == pytest.approx(
                average_precision_bruteforce(ranked_ids, relevant), abs=1e-12
            )
            assert qe.p5 == pytest.approx(
                precision_at_k_bruteforce(ranked_ids, relevant, 5), abs=1e-12
            )
            assert qe.p10 == pytest.approx(
                precision_at_k_bruteforce(ranked_ids, relevant, 10), abs=1e-12
            )
            assert list(qe.interpolated) == pytest.approx(
                interpolated_precision_bruteforce(
                    ranked_ids, relevant, RECALL_LEVELS
                ),
                abs=1e-12,
            )

    def test_unjudged_and_empty_queries_are_excluded(self):
        run = RunFile(
            "t",
            {
                "q1": [("d1", -1.0)],
                "q2": [("d2", -1.0)],
                "q3": [("d3", -1.0)],
            },
        )
        qrels = Qrels({"q1": {"d1"}, "q3": set()})
        result = evaluate(run, qrels)
        assert set(result.per_query) == {"q1"}
        assert sorted(result.excluded) == ["q2", "q3"]
        assert result.map == 1.0

    def test_no_evaluable_queries_is_an_error(self):
        run = RunFile("t", {"q9": [("d1", -1.0)]})
        with pytest.raises(ValueError, match="no evaluable"):
            evaluate(run, Qrels({"q1": {"d1"}}))

    def test_interpolated_curve_is_non_increasing(self):
        rng = random.Random(72)
        doc_ids = [f"d{chr(ord('a') + i)}" for i in range(15)]
        for _ in range(60):
            ranked_ids = rng.sample(doc_ids, rng.randint(1, 15))
            ranking = [(doc, -float(i)) for i, doc in enumerate(ranked_ids)]
            relevant = set(rng.sample(doc_ids, rng.randint(1, 5)))
            result = evaluate(RunFile("t", {"q": ranking}), Qrels({"q": relevant}))
            curve = result.per_query["q"].interpolated
            for earlier, later in zip(curve, curve[1:]):
                assert earlier >= later

    def test_save_eval_writes_summary(self, tmp_path):
        run = RunFile("t", {"q1": [("d1", -1.0)]})
        result = evaluate(run, Qrels({"q1": {"d1"}}))
        path = tmp_path / "eval.tsv"
        save_eval(result, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("map\t1.0\n")
        assert "query\tq1\t" in text


class TestPairedTtest:
    def test_frozen_example(self):
        t, p = paired_ttest([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert t == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert p == pytest.approx(0.07417990022744862, abs=1e-12)

    def test_matches_scipy_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            a = rng.normal(size=n)
            b = rng.normal(size=n) + rng.normal() * 0.5
            t, p = paired_ttest(a.tolist(), b.tolist())
            ref = scipy.stats.ttest_rel(a, b)
            assert t == pytest.approx(float(ref.statistic), abs=1e-9)
            assert p == pytest.approx(float(ref.pvalue), abs=1e-9)

    def test_degenerate_cases(self):
        assert paired_ttest([], []) == (0.0, 1.0)
        assert paired_ttest([1.0], [2.0]) == (0.0, 1.0)
        assert paired_ttest([1.0, 2.0], [1.0, 2.0]) == (0.0, 1.0)
        t, p = paired_ttest([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        assert t == math.inf and p == 1e-300
        t, p = paired_ttest([1.0, 1.0], [3.0, 3.0])
        assert t == -math.inf and p == 1e-300

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            paired_ttest([1.0], [1.0, 2.0])

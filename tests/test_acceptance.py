"""Acceptance gate: one test per shipped guarantee, at pinned tolerances.

Each test is self-contained and checks the library against an independent
oracle, a hand-computed value, or a constructed corpus with known ground
truth. The conftest hook prints one summary line per criterion.
"""

import math
import random
import time

import numpy as np

from affixgen.corpus import (
    Document,
    PosLexicon,
    tokenize,
)
from affixgen.disambig import (
    AssociationModel,
    TranslationCandidateSet,
    build_candidate_sets,
    build_weighted_query,
    init_weights,
    itd_weights,
    joint_weights_2g,
)
from affixgen.morphgen import (
    FormationCandidate,
    FormationGenerator,
    NoiseFilterConfig,
    apply_rule,
)
from affixgen.retrieval import (
    RECALL_LEVELS,
    Qrels,
    RetrievalConfig,
    RunFile,
    evaluate,
    feedback_model,
    paired_ttest,
    run_queries,
    score_kl,
)
from affixgen.rules import (
    Action,
    TransformationRule,
    extract_rule,
    mine_rules,
)
from affixgen.disambig import QueryTerm, WeightedQuery
from oracles import (
    average_precision_bruteforce,
    feedback_model_em,
    indel_distance,
    interpolated_precision_bruteforce,
    itd_step,
    lcs_len,
    mine_rules_bruteforce,
    mixture_loglikelihood,
    precision_at_k_bruteforce,
    weights_2g_bruteforce,
    weights_itd_bruteforce,
)
from synthcorpus import build_world
from tables import cooc_of, index_of, tables


def rand_word(rng, alphabet, lo, hi):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def test_criterion_1_indel_lcs_identity():
    """Indel distance equals |w|+|w2|-2*LCS on 10,000 random pairs, < 5 s."""
    rng = random.Random(1001)
    start = time.perf_counter()
    for _ in range(10000):
        a = rand_word(rng, "abcd", 0, 10)
        b = rand_word(rng, "abcd", 0, 10)
        assert indel_distance(a, b) == len(a) + len(b) - 2 * lcs_len(a, b)
    assert time.perf_counter() - start < 5.0


def test_criterion_2_rule_round_trip():
    """Every close vocabulary pair survives extract-then-apply, < 60 s."""
    rng = random.Random(2002)
    vocab = set()
    while len(vocab) < 1000:
        vocab.add(rand_word(rng, "abcdef", 3, 9))
    words = sorted(vocab)
    start = time.perf_counter()

    # Character-count signatures give a sound lower bound on indel distance,
    # so the L1 <= 3 prefilter cannot miss a pair within distance 3. True
    # distances for survivors come from the full dynamic program.
    alphabet = sorted({c for w in words for c in w})
    col = {c: i for i, c in enumerate(alphabet)}
    sig = np.zeros((len(words), len(alphabet)), dtype=np.int16)
    for row, w in enumerate(words):
        for c in w:
            sig[row, col[c]] += 1

    pairs = []
    for i in range(len(words)):
        l1 = np.abs(sig[i + 1 :] - sig[i]).sum(axis=1)
        for off in np.nonzero(l1 <= 3)[0]:
            j = i + 1 + int(off)
            if 1 <= indel_distance(words[i], words[j]) <= 3:
                pairs.append((words[i], words[j]))
    assert len(pairs) > 1000

    failures = 0
    for a, b in pairs:
        if b not in apply_rule(a, extract_rule(a, b)):
            failures += 1
        if a not in apply_rule(b, extract_rule(b, a)):
            failures += 1
    assert failures == 0
    assert time.perf_counter() - start < 60.0


def test_criterion_3_mining_matches_unpruned_bruteforce():
    """Pruned mining equals the unpruned pair enumeration on small vocabs."""
    rng = random.Random(3003)
    cases = [
        ("ab", 40, None),
        ("abc", 120, None),
        ("abcde", 200, None),
        ("abcd", 150, "NVA"),
    ]
    for alphabet, size, tags in cases:
        vocab = {rand_word(rng, alphabet, 2, 8) for _ in range(size)}
        assert len(vocab) <= 200
        lexicon = None
        if tags:
            lexicon = PosLexicon(
                {w: rng.choice(tags) for w in list(vocab)[:: 2]}
            )
        table = mine_rules(vocab, lexicon)
        tagger = lexicon.tag_of if lexicon else (lambda w: "UNK")
        counts, probs = mine_rules_bruteforce(vocab, tagger, 3)
        assert table.counts == dict(counts)
        assert table.probs == probs
        assert abs(sum(table.probs.values()) - 1.0) <= 1e-9


def test_criterion_4_reference_extraction_rows():
    """Three fixed word pairs map to their expected positioned action lists."""
    assert extract_rule("jhangrd", "jhangrdi").actions == (
        Action("i", "e", "i"),
    )
    assert extract_rule("ksart", "ksarat").actions == (
        Action("i", "m", "a"),
    )
    assert extract_rule("shabe", "ashab").actions == (
        Action("i", "b", "a"),
        Action("d", "e", "e"),
    )


class _StubAssociation:
    def __init__(self, edges):
        self.edges = {}
        for (a, b), value in edges.items():
            self.edges[(a, b)] = value
            self.edges[(b, a)] = value

    def edge(self, a, b):
        return self.edges.get((a, b), 0.0)


class _ConstantAssociation:
    def __init__(self, value):
        self.value = value

    def edge(self, a, b):
        return self.value


def _random_dense_instance(rng, terms=5, cands=5):
    names = [[f"c{i}{j}" for j in range(cands)] for i in range(terms)]
    edges = {}
    for i, row in enumerate(names):
        for other in names[i + 1 :]:
            for a in row:
                for b in other:
                    edges[(a, b)] = rng.random()
    sets = init_weights(
        [TranslationCandidateSet(f"t{i}", names[i]) for i in range(terms)]
    )
    return sets, _StubAssociation(edges)


def test_criterion_5_iterative_weighting_contracts():
    """Fixed point, normalization, formation independence, convergence."""
    # Constant associations leave per-term uniform weights exactly in place.
    sets = init_weights(
        [
            TranslationCandidateSet("t1", ["a", "b"]),
            TranslationCandidateSet("t2", ["c", "d", "e", "f"]),
        ]
    )
    result = itd_weights(sets, _ConstantAssociation(0.5))
    assert result.sets[0].dict_weights == [0.5, 0.5]
    assert result.sets[1].dict_weights == [0.25, 0.25, 0.25, 0.25]
    assert result.converged and result.final_delta == 0.0

    # Per-term weights stay normalized after every single iteration.
    rng = random.Random(5005)
    for _ in range(10):
        state, assoc = _random_dense_instance(rng)
        for _ in range(10):
            state = itd_weights(state, assoc, max_iters=1, eps=1e-300).sets
            for cs in state:
                total = sum(cs.dict_weights) + sum(cs.formation_weights)
                assert abs(total - 1.0) <= 1e-9

    # Perturbing one term's formation weights must not move any other
    # term's formation update, while dictionary updates do respond.
    rule = TransformationRule((), "UNK")
    fa = FormationCandidate("fa", "a", rule, 0.5)
    fb = FormationCandidate("fb", "b", rule, 0.5)
    assoc = _StubAssociation(
        {("fb", "fa"): 9.0, ("fb", "a"): 1.0, ("b", "fa"): 2.0}
    )

    def perturbed(fa_weight):
        return [
            TranslationCandidateSet("t1", ["a"], [fa], [0.5], [fa_weight]),
            TranslationCandidateSet("t2", ["b"], [fb], [0.5], [0.5]),
        ]

    d1, f1 = itd_step(perturbed(0.125), assoc)
    d2, f2 = itd_step(perturbed(0.875), assoc)
    assert f1[1] == f2[1]
    assert d1[1] != d2[1]

    # Random dense 5x5 instances converge within the iteration budget.
    rng = random.Random(5105)
    for _ in range(100):
        sets, assoc = _random_dense_instance(rng)
        result = itd_weights(sets, assoc, max_iters=50, eps=1e-6)
        assert result.converged
        assert result.iterations <= 50
        assert result.final_delta < 1e-6


def _random_toy_world(rng):
    vocab = [rand_word(rng, "abcde", 3, 5) for _ in range(12)]
    window = rng.randint(2, 5)
    table = cooc_of(
        [[rng.choice(vocab) for _ in range(rng.randint(2, 9))]
         for _ in range(rng.randint(1, 5))],
        window,
    )
    rule = TransformationRule((), "UNK")
    sets = []
    for i in range(rng.randint(2, 4)):
        cands = rng.sample(vocab, rng.randint(1, 3))
        formations = [
            FormationCandidate(rng.choice(vocab), cands[0], rule, 0.5)
            for _ in range(rng.randint(0, 2))
        ]
        dedup = []
        for f in formations:
            if f.surface not in cands and all(
                f.surface != g.surface for g in dedup
            ):
                dedup.append(f)
        sets.append(TranslationCandidateSet(f"t{i}", cands, dedup))
    return table, sets


def test_criterion_6_one_shot_weighting_matches_bruteforce():
    """Library 2G weights equal the direct equation evaluation, 1e-12."""
    rng = random.Random(6006)
    for _ in range(150):
        table, sets = _random_toy_world(rng)
        assoc = AssociationModel(table, "joint")
        got = joint_weights_2g(sets, assoc)
        expected = weights_2g_bruteforce(sets, table)
        for cs, (dict_scores, form_scores) in zip(got, expected):
            assert len(cs.dict_weights) == len(dict_scores)
            for a, b in zip(cs.dict_weights, dict_scores):
                assert abs(a - b) <= 1e-12
            for a, b in zip(cs.formation_weights, form_scores):
                assert abs(a - b) <= 1e-12

    # With no formations the full path is bit-identical to the plain method.
    rng = random.Random(6106)
    for _ in range(150):
        table, sets = _random_toy_world(rng)
        bare = [
            TranslationCandidateSet(cs.query_term, list(cs.dict_candidates))
            for cs in sets
        ]
        got = joint_weights_2g(bare, AssociationModel(table, "joint"))
        expected = weights_2g_bruteforce(bare, table)
        for cs, (dict_scores, _) in zip(got, expected):
            assert cs.dict_weights == dict_scores
            assert cs.formation_weights == []


def test_iterative_weighting_matches_bruteforce():
    """Library ITD weights and step counts equal the direct iteration, exactly."""
    rng = random.Random(5115)
    checked = 0
    while checked < 300:
        table, sets = _random_toy_world(rng)
        if not any(cs.formations for cs in sets):
            continue
        checked += 1
        got = itd_weights(
            init_weights(sets), AssociationModel(table, "mi"), 50, 1e-6
        )
        expected, iterations = weights_itd_bruteforce(sets, table, 50, 1e-6)
        assert got.iterations == iterations
        for cs, (dict_weights, form_weights) in zip(got.sets, expected):
            assert cs.dict_weights == dict_weights
            assert cs.formation_weights == form_weights


def test_criterion_7_retrieval_and_evaluation_oracles():
    """Hand-checked smoothing scores, definition-level metrics, MAP edge."""
    index = index_of(
        [
            Document("d1", "apple banana apple"),
            Document("d2", "banana cherry"),
            Document("d3", "cherry cherry cherry apple"),
        ]
    )
    q = WeightedQuery(
        "q", [QueryTerm("apple", 0.6, "dictionary"), QueryTerm("cherry", 0.4, "dictionary")]
    )
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
    for doc_id in expected:
        assert abs(got[doc_id] - expected[doc_id]) <= 1e-9

    rng = random.Random(7007)
    doc_ids = [f"d{chr(ord('a') + i)}" for i in range(26)]
    for _ in range(500):
        depth = rng.randint(1, 20)
        ranked_ids = rng.sample(doc_ids, depth)
        ranking = [(doc, -float(i)) for i, doc in enumerate(ranked_ids)]
        relevant = set(rng.sample(doc_ids, rng.randint(1, 8)))
        result = evaluate(RunFile("t", {"q": ranking}), Qrels({"q": relevant}))
        qe = result.per_query["q"]
        assert abs(qe.ap - average_precision_bruteforce(ranked_ids, relevant)) <= 1e-12
        assert abs(qe.p5 - precision_at_k_bruteforce(ranked_ids, relevant, 5)) <= 1e-12
        assert abs(qe.p10 - precision_at_k_bruteforce(ranked_ids, relevant, 10)) <= 1e-12
        curve = interpolated_precision_bruteforce(ranked_ids, relevant, RECALL_LEVELS)
        for a, b in zip(qe.interpolated, curve):
            assert abs(a - b) <= 1e-12

    run = RunFile("t", {"q1": [("d1", -1.0), ("d2", -2.0)]})
    assert evaluate(run, Qrels({"q1": {"d1"}})).map == 1.0


def test_criterion_8_synthetic_cross_lingual_pipeline():
    """Planted rules, variant recovery, and a significant retrieval gain."""
    start = time.perf_counter()
    world = build_world()
    index, cooc = tables(world.documents, 10)

    table = mine_rules(index.vocabulary)
    top20 = {rule for rule, _, _ in table.ranked()[:20]}
    missing = [r for r in world.planted_rules if r not in top20]
    assert missing == []

    cfg = NoiseFilterConfig(
        rule_prob_threshold=0.01,
        min_len={1: 4, 2: 5, 3: 6},
        context_window=10,
        require_context=True,
    )
    generator = FormationGenerator(index.vocabulary, table, cfg=cfg)

    recovered = 0
    planted_total = 0
    ag_queries = []
    plain_queries = []
    for qid, title in world.topics:
        terms = tokenize(title)
        sets = build_candidate_sets(
            terms, world.dictionary, mode="ag", generator=generator, cooc=cooc
        )
        surfaces = {f.surface for cs in sets for f in cs.formations}
        planted = world.planted_variants[qid]
        recovered += len(surfaces & planted)
        planted_total += len(planted)
        ag_queries.append(
            build_weighted_query(
                qid, terms, world.dictionary,
                mode="ag", weighting="2g", cooc=cooc, generator=generator,
            )
        )
        plain_queries.append(
            build_weighted_query(
                qid, terms, world.dictionary, mode="none", weighting="2g",
                cooc=cooc,
            )
        )
    assert planted_total > 0
    assert recovered / planted_total >= 0.9

    rcfg = RetrievalConfig(mu=1000.0)
    eval_ag = evaluate(run_queries(ag_queries, index, rcfg, "ag"), world.qrels)
    eval_plain = evaluate(
        run_queries(plain_queries, index, rcfg, "plain"), world.qrels
    )
    qids = sorted(eval_ag.per_query)
    assert qids == sorted(eval_plain.per_query)
    assert len(qids) == 20
    ap_ag = [eval_ag.per_query[q].ap for q in qids]
    ap_plain = [eval_plain.per_query[q].ap for q in qids]
    t, p = paired_ttest(ap_ag, ap_plain)
    assert eval_ag.map > eval_plain.map
    assert t > 0
    assert p < 0.05
    assert time.perf_counter() - start < 300.0


def test_criterion_9_noise_filter_monotonicity():
    """Raising the probability or length floors never adds formations."""
    rng = random.Random(9009)
    vocab = {rand_word(rng, "abcd", 3, 7) for _ in range(60)}
    rules = mine_rules(vocab)
    words = sorted(vocab)
    # Rule probabilities on this vocabulary top out near 0.006, so the
    # thresholds are sampled on that scale to keep the baseline sets busy.
    nonempty = 0
    for _ in range(100):
        tau_lo = rng.uniform(0.0, 0.004)
        tau_hi = tau_lo + rng.uniform(0.0, 0.004)
        len_lo = {k: rng.randint(0, 4) for k in (1, 2, 3)}
        len_hi = {k: len_lo[k] + rng.randint(0, 3) for k in (1, 2, 3)}
        word = rng.choice(words)

        def surfaces(tau, lens):
            cfg = NoiseFilterConfig(tau, lens)
            return {
                c.surface
                for c in FormationGenerator(vocab, rules, cfg=cfg).generate(word)
            }

        loose = surfaces(tau_lo, len_lo)
        tau_only = surfaces(tau_hi, len_lo)
        len_only = surfaces(tau_lo, len_hi)
        both = surfaces(tau_hi, len_hi)
        nonempty += bool(loose)
        assert tau_only <= loose
        assert len_only <= loose
        assert both <= tau_only
        assert both <= len_only
    assert nonempty > 50


def test_criterion_10_feedback_model_is_exact_mle():
    """Closed-form feedback model: KKT optimal, at least converged EM's fit.

    On 300 random count tables at each noise level, every kept term has the
    same marginal (1 - noise) * c_t / mix_t and no dropped term a larger
    one, the kept probabilities are positive and sum to 1, and the
    log-likelihood is at least that of EM run until it converged. The
    tolerances are rounding: near noise = 1 - 1e-6, p_t = c_t / nu - r * q_t
    cancels about log10(r) = 6 digits.
    """
    rng = random.Random(10010)
    for noise in (0.0, 1e-6, 0.5, 1.0 - 1e-6, 1.0):
        for _ in range(300):
            tokens = [rng.choice("abcdefghijkl") for _ in range(rng.randint(5, 80))]
            index = index_of([Document("d", " ".join(tokens))])
            vocab = sorted(index.collection_freq)
            counts = {
                t: rng.randint(1, 12)
                for t in rng.sample(vocab, rng.randint(1, min(10, len(vocab))))
            }
            p_coll = {t: index.p_collection(t) for t in counts}
            probs = feedback_model(counts, index, noise)
            assert set(probs) <= set(counts)
            assert all(p > 0.0 for p in probs.values())
            assert abs(math.fsum(probs.values()) - 1.0) <= 1e-9
            marginal = {
                t: (1.0 - noise) * c / ((1.0 - noise) * probs.get(t, 0.0) + noise * p_coll[t])
                for t, c in counts.items()
            }
            level = max(marginal[t] for t in probs)
            for t in counts:
                if t in probs:
                    assert abs(marginal[t] - level) <= 1e-9 * level
                else:
                    assert marginal[t] <= level * (1.0 + 1e-9)
            _, history, converged = feedback_model_em(counts, p_coll, noise)
            assert converged
            ll = mixture_loglikelihood(counts, p_coll, noise, probs)
            assert ll >= history[-1] - 1e-14 * max(1.0, abs(history[-1]))

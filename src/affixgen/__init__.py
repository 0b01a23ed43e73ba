"""Corpus-driven affix rule mining, morphological query expansion, and
language-model retrieval for dictionary-based cross-language search."""

from .config import ExperimentConfig, load_config, save_config
from .corpus import (
    CollectionIndex,
    CooccurrenceTable,
    Document,
    PosLexicon,
    StopwordList,
    load_pos_lexicon,
    load_stopwords,
    read_documents,
    tokenize,
)
from .disambig import (
    AssociationModel,
    BilingualDictionary,
    TranslationCandidateSet,
    WeightedQuery,
    baseline_weights,
    build_weighted_query,
    init_weights,
    itd_weights,
    joint_weights_2g,
    load_dictionary,
)
from .morphgen import (
    FormationCandidate,
    FormationGenerator,
    NoiseFilterConfig,
    apply_rule,
    context_filter,
    ngram_split,
)
from .retrieval import (
    EvalResult,
    Qrels,
    RetrievalConfig,
    RunFile,
    evaluate,
    paired_ttest,
    prf_mixture,
    run_queries,
    score_kl,
)
from .rules import (
    Action,
    MedConfig,
    RuleTable,
    TransformationRule,
    extract_rule,
    mine_rules,
    score_rules,
)

__version__ = "0.1.0"

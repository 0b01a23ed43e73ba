"""Corpus-driven affix rule mining, morphological query expansion, and
language-model retrieval for dictionary-based cross-language search."""

from .corpus import Document, tokenize
from .disambig import BilingualDictionary, build_weighted_query
from .morphgen import FormationGenerator, NoiseFilterConfig
from .retrieval import RetrievalConfig, run_queries
from .rules import mine_rules

__version__ = "0.1.0"

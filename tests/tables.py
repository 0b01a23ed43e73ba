"""Tables for tests, built the one way the program builds them.

Documents go through ``save_index`` into a temporary snapshot once, and the
index and co-occurrence table are built from one ``read_snapshot`` of it, as
the ``translate`` command builds them, or read back with ``load_index`` and
``load_cooccurrence``, so every table a test checks is one the ``translate``
and ``retrieve`` commands could have loaded. ``feedback_probs`` calls the
program's feedback model, which works on term ids, with a term to count
dict.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager

import numpy as np

from affixgen.config import ExperimentConfig
from affixgen.corpus import (
    Document,
    load_cooccurrence,
    load_index,
    read_snapshot,
    save_index,
    tokenize,
)
from affixgen.retrieval import feedback_model


def token_stream(docs, stopwords=None):
    """``(doc_id, tokens)`` pairs of Documents or of token lists (ids d0, d1, ...)."""
    for number, doc in enumerate(docs):
        if isinstance(doc, Document):
            yield doc.doc_id, tokenize(doc.text, stopwords)
        else:
            yield f"d{number}", list(doc)


@contextmanager
def _snapshot(docs):
    """A temporary directory holding one snapshot of ``docs``."""
    with tempfile.TemporaryDirectory() as directory:
        save_index(token_stream(docs), directory)
        yield directory


def tables(docs, window=ExperimentConfig.context_window):
    """The index and ``window``-token co-occurrence table of one snapshot of ``docs``."""
    with _snapshot(docs) as directory:
        snapshot = read_snapshot(directory)
        return snapshot.collection_index(), snapshot.cooccurrence(window)


def index_of(docs):
    with _snapshot(docs) as directory:
        return load_index(directory)


def cooc_of(docs, window=ExperimentConfig.context_window):
    with _snapshot(docs) as directory:
        return load_cooccurrence(directory, window)


def feedback_probs(counts, index, noise):
    """``feedback_model`` on a term to count dict: its support, term to probability."""
    ids = np.array(sorted(index.term_id[t] for t in counts), dtype=np.int64)
    tallies = np.array([counts[index.terms[t]] for t in ids.tolist()], dtype=np.int64)
    support, probs = feedback_model(ids, tallies, index, noise)
    return dict(zip(map(index.terms.__getitem__, support.tolist()), probs.tolist()))

"""Tables for tests, built the one way the program builds them.

Documents go through ``save_index`` into a temporary snapshot once, and the
index and co-occurrence table are read back with ``load_index`` and
``load_cooccurrence``, so every table a test checks is one the ``translate``
and ``retrieve`` commands could have loaded.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager

from affixgen.config import ExperimentConfig
from affixgen.corpus import (
    Document,
    load_cooccurrence,
    load_index,
    save_index,
    tokenize,
)


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
        return load_index(directory), load_cooccurrence(directory, window)


def index_of(docs):
    with _snapshot(docs) as directory:
        return load_index(directory)


def cooc_of(docs, window=ExperimentConfig.context_window):
    with _snapshot(docs) as directory:
        return load_cooccurrence(directory, window)

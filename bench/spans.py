"""Span recorder for the traced benchmark run, and the per-layer metrics.

``Tracer.install`` replaces every public function of the six layers
(``affixgen.corpus``, ``rules``, ``morphgen``, ``disambig``, ``retrieval``,
``cli``), and ``FormationGenerator``'s constructor and ``generate``, with a
wrapper in every ``affixgen`` module namespace that binds them. So a span is
recorded around each call the benchmark makes into a layer, and also around
each call one layer makes into another; the program's source is unchanged.

A span has a name (``layer.function``), start and end, the span that caused
it, the operation it belongs to and the benchmark phase (``setup``, ``op``,
``eval``). Functions called per character pair or per token (the ``HOT``
set) get no span of their own: each call is counted on the enclosing span,
which is how ``banded_distance`` calls become DP counts. Counts read at
function boundaries (a ``RuleTable``'s ``total_count``, an ``ItdResult``'s
iterations, the history ``fit_feedback_model`` returns, ...) are attached to
the span after its end time is taken; the time that takes is credited to the
parent span as child time, so it stays out of every self time, and within
operations it is added up in ``Tracer.probe_s``.

Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = ("corpus", "rules", "morphgen", "disambig", "retrieval", "cli")

# Called once per token, word pair or ITD iteration: counted, not spanned.
HOT = {
    "corpus.tokenize", "rules.banded_distance", "rules.extract_rule",
    "rules.indel_distance", "rules.format_actions", "rules.parse_actions",
    "morphgen.apply_rule", "morphgen.ngram_split", "morphgen.stem_hook",
    "disambig.itd_step",
}


class Span:
    __slots__ = ("sid", "parent", "op", "phase", "name", "start", "end", "attrs", "child_s")

    def __init__(self, sid, parent, op, phase, name):
        self.sid, self.parent, self.op, self.phase, self.name = sid, parent, op, phase, name
        self.attrs: Counter = Counter()
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _postings_scanned(query, index) -> int:
    return sum(len(index.postings[t]) for t, w in query.as_distribution().items()
               if w > 0.0 and t in index.postings)


def _pair_total(table) -> int:
    # The pair table's size, read directly where it can be: iter_pairs walks
    # every pair.
    pairs = getattr(table, "_pairs", None)
    return len(pairs) if pairs is not None else sum(1 for _ in table.iter_pairs())


# Counts read at the boundary of a call: name -> (args, result) -> attrs.
PROBES = {
    "corpus.build_cooccurrence": lambda a, r: {"pairs": _pair_total(r)},
    "rules.mine_rules": lambda a, r: {"pairs_within_k": r.total_count / 2},
    "morphgen.FormationGenerator.generate": lambda a, r: {"formations": len(r)},
    "morphgen.context_filter": lambda a, r: {"kept": len(r)},
    "disambig.build_candidate_sets": lambda a, r: {"candidates": sum(cs.size for cs in r)},
    "disambig.itd_weights": lambda a, r: {"iterations": r.iterations},
    "retrieval.score_kl": lambda a, r: {"postings": _postings_scanned(a[0], a[1])},
    "retrieval.fit_feedback_model": lambda a, r: {"terms": len(a[0]), "iterations": len(r[1])},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.phase = "setup"
        self.op: int | None = None
        self.probe_s = 0.0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        if name in HOT:
            def counted(*args, **kwargs):
                if tracer.stack:
                    tracer.stack[-1].attrs["calls." + name] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)
        probe = PROBES.get(name)

        def spanned(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span = Span(len(tracer.spans), parent.sid if parent else None,
                        tracer.op, tracer.phase, name)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.dur
            if probe is not None:
                t0 = time.perf_counter()
                span.attrs.update(probe(args, result))
                spent = time.perf_counter() - t0
                if span.phase == "op":
                    tracer.probe_s += spent
                if parent is not None:
                    parent.child_s += spent
            return result
        return functools.wraps(fn)(spanned)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"affixgen.{layer}") for layer in LAYERS}
        originals: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        everywhere = [m for n, m in list(importlib.sys.modules.items())
                      if n == "affixgen" or n.startswith("affixgen.")]
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, originals[id(obj)])
        gen_cls = modules["morphgen"].FormationGenerator
        for attr, name in (("__init__", "morphgen.FormationGenerator"),
                           ("generate", "morphgen.FormationGenerator.generate")):
            obj = gen_cls.__dict__[attr]
            self._patched.append((gen_cls, attr, obj))
            setattr(gen_cls, attr, self._wrap(name, obj))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "op": s.op, "phase": s.phase,
                    "name": s.name, "start": s.start, "end": s.end,
                    "self_ms": s.self_s * 1e3, **dict(s.attrs)}) + "\n")


def _sum_ms(*names):
    return lambda spans: sum(s.dur for s in spans if s.name in names) * 1e3


def _self_ms(pred):
    return lambda spans: sum(s.self_s for s in spans if pred(s)) * 1e3


def _attr(names, key):
    names = (names,) if isinstance(names, str) else names
    return lambda spans: sum(s.attrs[key] for s in spans if s.name in names)


def _ratio(num, den):
    return lambda spans: (num(spans) / den(spans)) if den(spans) else 0.0


def _count(name):
    return lambda spans: sum(1 for s in spans if s.name == name)


_GEN = "morphgen.FormationGenerator.generate"
_DP = "calls.rules.banded_distance"

# name -> (unit, phase whose spans it reads, how to compute it from them).
PER_LAYER = {
    "corpus.read_ms": ("ms", "op", _sum_ms("corpus.read_documents")),
    "corpus.index_ms": ("ms", "op", _sum_ms("corpus.build_index")),
    "corpus.cooc_ms": ("ms", "op", _sum_ms("corpus.build_cooccurrence")),
    "corpus.cooc_pairs": ("count", "op", _attr("corpus.build_cooccurrence", "pairs")),
    "corpus.save_ms": ("ms", "op", _sum_ms("corpus.save_index", "corpus.save_cooccurrence")),
    "corpus.load_index_ms": ("ms", "setup", _sum_ms("corpus.load_index")),
    "corpus.load_cooc_ms": ("ms", "setup", _sum_ms("corpus.load_cooccurrence")),
    "cli.self_ms": ("ms", "op", _self_ms(lambda s: s.name.startswith("cli."))),
    "rules.mine_ms": ("ms", "op", _sum_ms("rules.mine_rules")),
    "rules.dp_calls": ("count", "op", _attr("rules.mine_rules", _DP)),
    "rules.pairs_within_k": ("count", "op", _attr("rules.mine_rules", "pairs_within_k")),
    "rules.dp_yield": ("ratio", "op", _ratio(_attr("rules.mine_rules", "pairs_within_k"),
                                             _attr("rules.mine_rules", _DP))),
    "rules.save_ms": ("ms", "op", _sum_ms("rules.save_rules")),
    "rules.load_ms": ("ms", "setup", _sum_ms("rules.load_rules")),
    "morphgen.init_ms": ("ms", "setup", _sum_ms("morphgen.FormationGenerator")),
    "morphgen.generate_ms": ("ms", "op", _sum_ms(_GEN)),
    "morphgen.dp_calls": ("count", "op", _attr(_GEN, _DP)),
    "morphgen.dp_yield": ("ratio", "op", _ratio(_attr(_GEN, "formations"), _attr(_GEN, _DP))),
    "morphgen.context_filter_ms": ("ms", "op", _sum_ms("morphgen.context_filter")),
    "morphgen.formations_kept": ("count", "op", _attr("morphgen.context_filter", "kept")),
    "disambig.candidate_sets_self_ms": (
        "ms", "op", _self_ms(lambda s: s.name == "disambig.build_candidate_sets")),
    "disambig.candidates_per_query": (
        "count", "op", _attr("disambig.build_candidate_sets", "candidates")),
    "disambig.itd_iterations": ("count", "op", _ratio(
        _attr("disambig.itd_weights", "iterations"), _count("disambig.itd_weights"))),
    "disambig.weighting_ms": ("ms", "op", _sum_ms("disambig.weight_candidate_sets")),
    "retrieval.score_ms": ("ms", "op", _sum_ms("retrieval.score_kl")),
    "retrieval.postings_scanned": ("count", "op", _attr("retrieval.score_kl", "postings")),
    "retrieval.prf_ms": ("ms", "op", _sum_ms("retrieval.prf_mixture")),
    "retrieval.feedback_terms": ("count", "op", _ratio(
        _attr("retrieval.fit_feedback_model", "terms"), _count("retrieval.fit_feedback_model"))),
    "retrieval.em_iterations": ("count", "op", _ratio(
        _attr("retrieval.fit_feedback_model", "iterations"),
        _count("retrieval.fit_feedback_model"))),
    "retrieval.evaluate_ms": ("ms", "eval", _sum_ms("retrieval.evaluate")),
}

# Ratios and per-call means are not divided again by the phase's unit count.
_PER_CALL = {"rules.dp_yield", "morphgen.dp_yield", "disambig.itd_iterations",
             "retrieval.feedback_terms", "retrieval.em_iterations"}


def per_layer_metrics(spans: list[Span], units: dict[str, int]) -> dict[str, dict]:
    """Each metric per unit of its phase: per operation, per set-up, per evaluate."""
    by_phase: dict[str, list[Span]] = {}
    for s in spans:
        by_phase.setdefault(s.phase, []).append(s)
    out = {}
    for name, (unit, phase, compute) in PER_LAYER.items():
        value = compute(by_phase.get(phase, []))
        if name not in _PER_CALL:
            value /= max(units.get(phase, 0), 1)
        out[name] = {"value": float(value), "unit": unit}
    return out

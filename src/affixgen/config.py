"""Experiment configuration: one flat dataclass, an INI file format, and
flag overrides.

Every key lives in exactly one section and keeps the same name in the file,
on the command line (dashes for underscores), and on the dataclass, so a
written effective config reloads to an identical object. The typed settings
(``rules.MedConfig``, ``morphgen.NoiseFilterConfig``,
``retrieval.RetrievalConfig``) name their fields after these keys and take
their defaults from here (``min_len`` through ``min_len_map``), as do the
library keywords that carry a key's value, so this dataclass holds every
default once.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from . import textfiles


@dataclass
class ExperimentConfig:
    # paths
    corpus: str = ""
    stopwords: str = ""
    source_stopwords: str = ""
    pos_lexicon: str = ""
    dictionary: str = ""
    topics: str = ""
    qrels: str = ""
    rules_file: str = ""
    index_dir: str = ""
    stem_table: str = ""
    # pipeline
    mode: str = "none"
    weighting: str = "unif"
    run_tag: str = "affixgen"
    seed: int = 42
    ngram_n: int = 5
    prf: bool = False
    monolingual: bool = False
    # rules
    k_max: int = 3
    # noise
    rule_prob_threshold: float = 1e-4
    min_len: str = "4,5,6"
    context_window: int = 10
    require_context: bool = True
    # retrieval
    mu: float = 1000.0
    top_k: int = 1000
    prf_docs: int = 30
    prf_terms: int = 50
    prf_lambda: float = 0.5
    prf_noise: float = 0.5
    # itd
    itd_max_iters: int = 50
    itd_eps: float = 1e-6

    def min_len_map(self) -> dict[int, int]:
        """Parse the comma-separated length floors into a distance map."""
        floors = {k + 1: v for k, v in enumerate(_min_len_values(self.min_len))}
        check_min_len(floors, self.k_max)
        return floors


def check_min_len(floors: dict[int, int], k_max: int) -> None:
    """Refuse length floors that leave a distance from 1 to ``k_max`` without one."""
    for k in range(1, k_max + 1):
        if k not in floors:
            raise ValueError(f"min_len needs {k_max} entries for k_max={k_max}, "
                             f"none for distance {k}")


def _min_len_values(text: str) -> list[int]:
    """The integers of a comma-separated ``min_len`` value; empty entries are skipped."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"not a comma-separated list of integers: {text!r}") from None


SECTIONS: dict[str, tuple[str, ...]] = {
    "paths": (
        "corpus",
        "stopwords",
        "source_stopwords",
        "pos_lexicon",
        "dictionary",
        "topics",
        "qrels",
        "rules_file",
        "index_dir",
        "stem_table",
    ),
    "pipeline": (
        "mode",
        "weighting",
        "run_tag",
        "seed",
        "ngram_n",
        "prf",
        "monolingual",
    ),
    "rules": ("k_max",),
    "noise": ("rule_prob_threshold", "min_len", "context_window", "require_context"),
    "retrieval": ("mu", "top_k", "prf_docs", "prf_terms", "prf_lambda", "prf_noise"),
    "itd": ("itd_max_iters", "itd_eps"),
}

_TYPES = get_type_hints(ExperimentConfig)
_ALL_KEYS = {name for names in SECTIONS.values() for name in names}
assert _ALL_KEYS == {f.name for f in fields(ExperimentConfig)}


def _parse_value(key: str, text: str):
    kind = _TYPES[key]
    if kind is bool:
        lowered = text.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    if key == "min_len":
        _min_len_values(text)
    return text


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize to INI text that parses back to an equal config."""
    out = io.StringIO()
    for section, keys in SECTIONS.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {_format_value(getattr(cfg, key))}\n")
        out.write("\n")
    return out.getvalue()


def config_from_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse INI text; values are literal, so ``%`` needs no escaping.

    Any defect raises ValueError naming ``source``, and a bad value also
    names its section and key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ValueError(f"{source}: {' '.join(str(exc).split())}") from None
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in SECTIONS:
            raise ValueError(f"{source}: unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SECTIONS[section]:
                raise ValueError(f"{source}: unknown key {key!r} in [{section}]")
            try:
                setattr(cfg, key, _parse_value(key, raw))
            except ValueError as exc:
                raise ValueError(f"{source}: [{section}] {key}: {exc}") from None
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_text(textfiles.read_text(path), str(path))


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    with textfiles.replacing(path) as handle:
        handle.write(config_to_text(cfg))


def apply_overrides(cfg: ExperimentConfig, overrides: dict[str, object]) -> None:
    """Apply already-typed or string-typed flag values in place.

    A string that does not parse raises ValueError naming the key's flag.
    """
    for key, value in overrides.items():
        if key not in _ALL_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(value, str):
            try:
                value = _parse_value(key, value)
            except ValueError as exc:
                raise ValueError(f"--{key.replace('_', '-')}: {exc}") from None
        setattr(cfg, key, value)

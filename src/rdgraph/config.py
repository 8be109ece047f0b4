"""Run configuration: thresholds, lexicons, and marker lists with embedded defaults.

Everything tunable lives here so the pipeline itself stays context-free.
A config file is a JSON document with the same shape as ``DEFAULTS``; it is
deep-merged over the defaults, so partial overrides are fine.
"""

from __future__ import annotations

import functools
import json
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple


class ConfigError(ValueError):
    """Raised when a config file is malformed or violates an invariant."""


DEFAULTS: dict[str, Any] = {
    "thresholds": {
        # Minimum decision score; summary-phrase evidence alone (0.6) clears it.
        "decision": 0.5,
        # Single-link topic clustering over artifact-text cosine.
        "relatedness": 0.12,
        # Similar edges and new-decision checks over decision+rationale text.
        "similar": 0.25,
        # Evidence-weight sum needed for a history edge.
        "history": 0.5,
        # Rationale pairs at or above this are consistent, at or above
        # "duplicate" they are flagged as the same rationale reused.
        "consistency": 0.2,
        "duplicate": 0.9,
    },
    # Sentences scanned around a decision when its own sentence has no marker.
    "window": 2,
    # Conflict discovery: the candidate~decision link is one hop, 2 reaches
    # that decision's contradicts edges, 3 those of its similar neighbors.
    "k": 2,
    "lexicons": {
        "action_verbs": [
            "add", "disable", "enable", "give", "implement", "introduce",
            "make", "move", "remove", "rename", "replace", "revert",
            "switch", "use",
        ],
        "cue_phrases": [
            "agreed to", "decide to", "decided to", "decision to",
            "opted to", "settled on", "we chose",
        ],
        "negative_cues": ["?", "not sure", "should we", "tbd", "todo"],
        "markers": {
            "purpose": ["so that", "in order to", "such that", "so we can"],
            "cause": ["because", "since", "due to"],
            # "this way" must open the sentence; "by <gerund>" is matched as a
            # pattern anywhere (see rationale module).
            "manner": ["this way"],
        },
        "contradiction_keywords": ["revert", "remove", "disable"],
        "negation_cues": ["no", "not", "never", "n't"],
        "stopwords": [
            "a", "about", "above", "after", "again", "all", "also", "am",
            "an", "and", "any", "are", "as", "at", "be", "because", "been",
            "before", "being", "below", "between", "both", "but", "by",
            "can", "could", "did", "do", "does", "doing", "down", "during",
            "each", "few", "for", "from", "further", "had", "has", "have",
            "having", "he", "her", "here", "hers", "him", "his", "how",
            "if", "in", "into", "is", "it", "its", "itself", "just", "me",
            "more", "most", "my", "never", "no", "nor", "not", "of", "off",
            "on", "once", "only", "or", "other", "our", "ours", "out",
            "over", "own", "same", "she", "should", "so", "some", "such",
            "than", "that", "the", "their", "theirs", "them", "then",
            "there", "these", "they", "this", "those", "through", "to",
            "too", "under", "until", "up", "very", "was", "we", "were",
            "what", "when", "where", "which", "while", "who", "whom",
            "why", "will", "with", "would", "you", "your", "yours",
        ],
        "abbreviations": ["e.g", "i.e", "vs", "cf"],
    },
}

MARKER_ROLES = ("purpose", "cause", "manner")


class Thresholds(NamedTuple):
    decision: float
    relatedness: float
    similar: float
    history: float
    consistency: float
    duplicate: float


class Config(NamedTuple):
    thresholds: Thresholds
    window: int
    k: int
    action_verbs: frozenset[str]
    cue_phrases: frozenset[str]
    negative_cues: frozenset[str]
    markers: Mapping[str, tuple[str, ...]]  # read-only
    contradiction_keywords: frozenset[str]
    negation_cues: frozenset[str]
    stopwords: frozenset[str]
    abbreviations: frozenset[str]


def _merge(base: Any, override: Any, path: str) -> Any:
    if isinstance(base, dict):
        if not isinstance(override, dict):
            raise ConfigError(f"{path}: expected object, got {type(override).__name__}")
        merged = dict(base)
        for key, value in override.items():
            if key in base:
                merged[key] = _merge(base[key], value, f"{path}.{key}")
            else:
                raise ConfigError(f"{path}.{key}: unknown config key")
        return merged
    return override


def _entries(values: Any, path: str, trailing: str = "") -> list[str]:
    """A lexicon's entries, lowercased; given ``trailing``, each entry is
    stripped of surrounding whitespace and then of those trailing characters."""
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ConfigError(f"{path}: expected a list of strings")
    if trailing:
        entries = [v.lower().strip().rstrip(trailing) for v in values]
    else:
        entries = [v.lower() for v in values]
    # A blank entry matches everywhere: as a marker every word opens a span.
    if any(not e.strip() for e in entries):
        raise ConfigError(f"{path}: entries must not be blank")
    return entries


def _lower_set(values: Any, path: str, trailing: str = "") -> frozenset[str]:
    entries = _entries(values, path, trailing)
    if not entries:
        raise ConfigError(f"{path}: must not be empty")
    return frozenset(entries)


def from_dict(data: Mapping[str, Any]) -> Config:
    """Validate a raw config mapping and freeze it into a Config."""
    thresholds = data["thresholds"]
    # Python's bool is an int, but a JSON true or false is no number here.
    for key in Thresholds._fields:
        value = thresholds[key]
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not 0.0 <= value <= 1.0
        ):
            raise ConfigError(f"thresholds.{key}: must be a number in [0, 1]")
    for key in ("window", "k"):
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ConfigError(f"{key}: must be an integer >= 0")
    lex = data["lexicons"]
    # A marker's pattern joins its words with \s+, so collapsing its inner
    # whitespace keeps what it matches and gives "this way" one spelling.
    markers = MappingProxyType({
        role: tuple(
            " ".join(m.split())
            for m in _entries(lex["markers"][role], f"lexicons.markers.{role}")
        )
        for role in MARKER_ROLES
    })
    return Config(
        thresholds=Thresholds(*(float(thresholds[k]) for k in Thresholds._fields)),
        window=data["window"],
        k=data["k"],
        action_verbs=_lower_set(lex["action_verbs"], "lexicons.action_verbs"),
        cue_phrases=_lower_set(lex["cue_phrases"], "lexicons.cue_phrases"),
        negative_cues=_lower_set(lex["negative_cues"], "lexicons.negative_cues"),
        markers=markers,
        contradiction_keywords=_lower_set(
            lex["contradiction_keywords"], "lexicons.contradiction_keywords"
        ),
        negation_cues=_lower_set(lex["negation_cues"], "lexicons.negation_cues"),
        stopwords=_lower_set(lex["stopwords"], "lexicons.stopwords"),
        # The segmenter compares a word without its trailing dots, so " e.g. "
        # is stored as "e.g".
        abbreviations=_lower_set(lex["abbreviations"], "lexicons.abbreviations", "."),
    )


@functools.cache
def default_config() -> Config:
    """``from_dict(DEFAULTS)``, built once per process and shared."""
    return from_dict(DEFAULTS)


def load_config(path: str | None = None) -> Config:
    """Load a config file merged over the defaults; None gives the defaults."""
    if path is None:
        return default_config()
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return from_dict(_merge(DEFAULTS, raw, "config"))

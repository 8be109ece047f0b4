"""Extract rationale spans for decisions from causal/purpose/manner markers.

A span runs from the token after a matched marker to the end of the clause:
the end of the sentence, the next semicolon, or a comma that introduces a
new finite clause.  Purpose and cause markers match anywhere in a sentence;
"this way" only counts sentence-initially, and manner also matches the
pattern "by <gerund>".
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_right
from dataclasses import dataclass

from .corpus import Sentence
from .decisions import Decision, decision_sentence_index

PURPOSE = "purpose"
CAUSE = "cause"
MANNER = "manner"
ROLES = (PURPOSE, CAUSE, MANNER)

DEFAULT_MARKERS: dict[str, tuple[str, ...]] = {
    PURPOSE: ("so that", "in order to", "such that", "so we can"),
    CAUSE: ("because", "since", "due to"),
    MANNER: ("this way",),
}

_BY_GERUND_RE = re.compile(r"\bby\s+(?=[a-z]+ing\b)", re.IGNORECASE)

# Words that, right after a comma, signal a new finite clause.
_SUBJECT_WORDS = frozenset(
    {"it", "we", "they", "he", "she", "i", "you", "this", "that", "there",
     "the", "a", "an"}
)
_COORDINATORS = frozenset({"and", "but", "or", "so", "yet", "nor"})

_WORD_RE = re.compile(r"[A-Za-z0-9_']+")
_CLAUSE_STOP_RE = re.compile(r"[(),;]")


@dataclass(frozen=True)
class RationaleSpan:
    """A rationale text span tied to a decision, with provenance offsets."""

    id: str
    decision_id: str
    artifact_id: str
    role: str
    marker: str
    text: str
    start: int
    end: int
    same_sentence: bool


@dataclass(frozen=True)
class SpanFragment:
    """A marker hit inside one sentence, before decision attachment."""

    role: str
    marker: str
    text: str
    start: int
    end: int


@functools.lru_cache(maxsize=256)
def _marker_pattern(marker: str) -> re.Pattern[str]:
    words = [re.escape(w) for w in marker.split()]
    return re.compile(r"\b" + r"\s+".join(words) + r"\b", re.IGNORECASE)


def _word_index(text: str) -> tuple[list[int], list[str]]:
    """The words of ``text.lower()``, each with the index in ``text`` it starts at.

    ``str.lower`` can change lengths (``"\u0130"`` becomes ``"i\u0307"``), so a
    non-ASCII text is lowered one character at a time to keep the offsets.
    Only the final sigma is lowered by context, and neither of its forms is a
    word character, so the words are those of lowering the text as a whole.
    """
    if text.isascii():
        lowered, origin = text.lower(), None
    else:
        pieces = [ch.lower() for ch in text]
        lowered = "".join(pieces)
        origin = [index for index, piece in enumerate(pieces) for _ in piece]
    starts: list[int] = []
    words: list[str] = []
    for match in _WORD_RE.finditer(lowered):
        starts.append(match.start() if origin is None else origin[match.start()])
        words.append(match.group())
    return starts, words


def _clause_end(text: str, start: int, starts: list[int], words: list[str]) -> int:
    """Scan from start to the clause boundary; offsets are sentence-local.

    ``starts``/``words`` are :func:`_word_index` of ``text``, so the two words
    after a comma are a binary search away instead of a scan of the rest.
    """
    i = start
    depth = 0
    while (stop := _CLAUSE_STOP_RE.search(text, i)) is not None:
        i = stop.start()
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0 and ch == ";":
            return i
        elif depth == 0 and ch == ",":
            k = bisect_right(starts, i)
            if k < len(words):
                first = words[k]
                second = words[k + 1] if k + 1 < len(words) else ""
                if first in _SUBJECT_WORDS:
                    return i
                if first in _COORDINATORS and second in _SUBJECT_WORDS:
                    return i
        i += 1
    return len(text)


def _trim(text: str, start: int, end: int) -> tuple[str, int, int]:
    chunk = text[start:end]
    stripped = chunk.strip(" \t\n.,;:!?")
    if not stripped:
        return "", start, start
    new_start = start + chunk.find(stripped)
    return stripped, new_start, new_start + len(stripped)


def extract_rationale(
    sentence: Sentence, markers: dict[str, tuple[str, ...]] | None = None
) -> list[SpanFragment]:
    """All marker-derived span fragments of one sentence, leftmost first.

    Overlapping marker matches are resolved leftmost-longest.  Offsets are
    absolute (into the artifact's normalized text).
    """
    marker_map = markers if markers is not None else DEFAULT_MARKERS
    text = sentence.text
    hits: list[tuple[int, int, str, str]] = []
    for role in ROLES:
        for marker in marker_map.get(role, ()):
            pattern = _marker_pattern(marker)
            for match in pattern.finditer(text):
                if marker == "this way" and match.start() != 0:
                    continue
                hits.append((match.start(), match.end(), role, marker))
    if MANNER in marker_map:
        for match in _BY_GERUND_RE.finditer(text):
            hits.append((match.start(), match.end(), MANNER, "by"))
    hits.sort(key=lambda h: (h[0], -(h[1] - h[0])))
    fragments: list[SpanFragment] = []
    starts, words = _word_index(text) if hits else ([], [])
    last_end = -1
    for start, end, role, marker in hits:
        if start < last_end:
            continue
        last_end = end
        span_text, span_start, span_end = _trim(
            text, end, _clause_end(text, end, starts, words)
        )
        if not span_text:
            continue
        fragments.append(
            SpanFragment(
                role=role,
                marker=marker,
                text=span_text,
                start=sentence.start + span_start,
                end=sentence.start + span_end,
            )
        )
    return fragments


def attach_rationale(
    decision: Decision,
    sentences: list[Sentence],
    window: int = 2,
    markers: dict[str, tuple[str, ...]] | None = None,
) -> list[RationaleSpan]:
    """Rationale spans for a decision, searching a bounded sentence window.

    The decision's own sentence is checked first; only when it has no marker
    are up to ``window`` following sentences scanned, then preceding ones.
    Spans keep their sentence-relative order: own sentence first, then by
    distance (following before preceding).
    """
    if any(s.artifact_id != decision.artifact_id for s in sentences):
        raise ValueError("sentences do not belong to the decision's artifact")
    by_index = {s.index: s for s in sentences}
    own_index = decision_sentence_index(decision.id)
    if own_index not in by_index:
        raise ValueError(f"decision sentence {own_index} missing from sentences")

    collected: list[tuple[SpanFragment, bool]] = []
    own_fragments = extract_rationale(by_index[own_index], markers)
    collected.extend((f, True) for f in own_fragments)
    if not own_fragments and window > 0:
        for distance in range(1, window + 1):
            for neighbor in (own_index + distance, own_index - distance):
                sentence = by_index.get(neighbor)
                if sentence is None:
                    continue
                collected.extend(
                    (f, False) for f in extract_rationale(sentence, markers)
                )
    spans = []
    for n, (fragment, same_sentence) in enumerate(collected):
        spans.append(
            RationaleSpan(
                id=f"{decision.id}/r{n}",
                decision_id=decision.id,
                artifact_id=decision.artifact_id,
                role=fragment.role,
                marker=fragment.marker,
                text=fragment.text,
                start=fragment.start,
                end=fragment.end,
                same_sentence=same_sentence,
            )
        )
    return spans

"""Extract rationale spans for decisions from causal/purpose/manner markers.

A span runs from the token after a matched marker to the end of the clause
(the end of the sentence, the next semicolon, or a comma that introduces a
new finite clause) or to the next marker, whichever comes first.  Purpose
and cause markers match anywhere in a sentence; "this way" only counts
sentence-initially, and manner also matches the pattern "by <gerund>".

A sentence is scanned once, left to right, by one pattern that matches any
marker.  Where several markers match at one place the longest wins, and a
marker never matches where it would overlap its own earlier match, even one
that lost to another marker.  One more pass, over the lowered sentence, finds
the clause ends of all its spans.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left
from typing import Mapping, NamedTuple

from .config import MARKER_ROLES, default_config
from .corpus import Sentence
from .decisions import Decision, decision_sentence_index

ROLES = MARKER_ROLES
PURPOSE, CAUSE, MANNER = ROLES

# The markers a build uses unless its config says otherwise.
DEFAULT_MARKERS: Mapping[str, tuple[str, ...]] = default_config().markers

_BY_GERUND_RE = re.compile(r"\bby\s+(?=[a-z]+ing\b)", re.IGNORECASE)

# Words that, right after a comma, signal a new finite clause, alone or after
# a coordinator.  A word is a run of ``[a-z0-9_']`` in the lowered sentence.
_SUBJECT_WORDS = "it|we|they|he|she|i|you|this|that|there|the|a|an"
_COORDINATORS = "and|but|or|so|yet|nor"
_NON_WORD = r"[^a-z0-9_',]"
_STARTS_CLAUSE = (
    rf"(?={_NON_WORD}*(?:(?:{_COORDINATORS})[^a-z0-9_']+)?"
    rf"(?:{_SUBJECT_WORDS})(?![a-z0-9_']))"
)
# Where a clause can end, in the lowered sentence: a parenthesis or semicolon;
# a chain of commas with no word between them, which share the next words; or
# a lone comma that a clause follows.  Other commas never match.  The commas of
# a match start a clause if it has a group (``lastindex`` is set).
_CLAUSE_RE = re.compile(
    rf"[();]|,(?:{_NON_WORD}*,)+({_STARTS_CLAUSE})?|,({_STARTS_CLAUSE})"
)


class RationaleSpan(NamedTuple):
    """A rationale text span tied to a decision, with provenance offsets."""

    id: str
    decision_id: str
    role: str
    marker: str
    text: str
    start: int
    end: int
    same_sentence: bool


class SpanFragment(NamedTuple):
    """A marker hit inside one sentence, before decision attachment."""

    role: str
    marker: str
    text: str
    start: int
    end: int


def _marker_pattern(marker: str) -> re.Pattern[str]:
    words = [re.escape(w) for w in marker.split()]
    return re.compile(r"\b" + r"\s+".join(words) + r"\b", re.IGNORECASE)


_Alternative = tuple[re.Pattern[str], str, str, bool]


@functools.lru_cache(maxsize=64)
def _any_marker(
    markers: tuple[tuple[str, ...], ...],
) -> tuple[re.Pattern[str], re.Pattern[str] | None, tuple[_Alternative, ...]]:
    """One pattern that matches wherever any of ``markers`` (one tuple per
    role, as ``config.from_dict`` gives them) or "by <gerund>" does; the same
    alternation without ``IGNORECASE`` for lowered ASCII text, if every marker
    is ASCII; and its alternatives as ``(pattern, role, marker, initial_only)``
    in the order that breaks ties.

    ``initial_only`` marks "this way", which counts only sentence-initially;
    ``from_dict`` gives it that one spelling."""
    alternatives = [
        (_marker_pattern(m), role, m, m == "this way")
        for role, ms in zip(ROLES, markers)
        for m in ms
    ]
    alternatives.append((_BY_GERUND_RE, MANNER, "by", False))
    combined = "|".join(p.pattern for p, _, _, _ in alternatives)
    # For ASCII, matching lowered text is matching with IGNORECASE (which lets
    # "s" match "\u017f"), and several times faster.  re.escape leaves letters
    # alone, so lowering the source lowers only the markers.
    ascii_markers = all(m.isascii() for ms in markers for m in ms)
    lowered = re.compile(combined.lower()) if ascii_markers else None
    return re.compile(combined, re.IGNORECASE), lowered, tuple(alternatives)


def _trim(text: str, start: int, end: int) -> tuple[str, int, int]:
    chunk = text[start:end]
    stripped = chunk.strip(" \t\n.,;:!?")
    if not stripped:
        return "", start, start
    new_start = start + chunk.find(stripped)
    return stripped, new_start, new_start + len(stripped)


def extract_rationale(
    sentence: Sentence, markers: Mapping[str, tuple[str, ...]] | None = None
) -> list[SpanFragment]:
    """All marker-derived span fragments of one sentence, leftmost first.

    One left-to-right scan accepts marker hits leftmost-longest: at the
    leftmost place where a marker matches, the longest match wins (of equally
    long ones, the first in role and marker order, "by <gerund>" last), and
    the scan goes on from its end.  A marker matches only where its own
    ``finditer`` would, so never where it overlaps its own earlier match,
    even one that lost.  A span ends at its clause end or at the start of the
    next accepted marker, whichever comes first, so each marker keeps its
    role and the spans of a sentence are disjoint and in order.  Offsets are
    absolute (into the artifact's normalized text).

    ``markers`` is taken as ``config.from_dict`` gives it: every role present,
    each entry lowered, its inner whitespace collapsed, and none blank.
    """
    marker_map = markers if markers is not None else DEFAULT_MARKERS
    text = sentence.text
    key = tuple(marker_map[role] for role in ROLES)
    any_marker, lowered_marker, alternatives = _any_marker(key)
    scanned = text
    if text.isascii():
        lowered, origin = text.lower(), None
        if lowered_marker is not None:
            any_marker, scanned = lowered_marker, lowered
    if (candidate := any_marker.search(scanned)) is None:
        return []
    # cursors[n]: where alternative n's own finditer would search next.
    cursors = [0] * len(alternatives)
    accepted: list[tuple[int, int, str, str]] = []
    pos = 0
    while candidate is not None:
        at = candidate.start()
        best = None
        for n, (pattern, role, marker, initial_only) in enumerate(alternatives):
            if cursors[n] > at or (hit := pattern.match(text, at)) is None:
                continue
            # Nothing matched from pos to at, but the scan skipped the inside
            # of accepted hits, where this marker may have matched.
            while cursors[n] < pos and (
                skipped := pattern.search(text, cursors[n])
            ).start() < at:
                cursors[n] = max(skipped.end(), skipped.start() + 1)
            if cursors[n] > at:
                continue
            cursors[n] = max(hit.end(), at + 1)
            if initial_only and at != 0:
                continue
            # Of equally long hits the first wins.
            if best is None or hit.end() > best[1]:
                best = (at, hit.end(), role, marker)
        pos = at + 1
        if best is not None:
            accepted.append(best)
            pos = max(pos, best[1])
        candidate = any_marker.search(scanned, pos)
    if not accepted:
        return []
    first = accepted[0][1]
    if not text.isascii():
        # str.lower can change lengths ("\u0130" becomes "i\u0307"), so each
        # character is lowered alone and origin maps back.  Only the final
        # sigma lowers by context, and neither of its forms is a word.
        pieces = [ch.lower() for ch in text]
        lowered = "".join(pieces)
        origin = [index for index, piece in enumerate(pieces) for _ in piece]
        first = bisect_left(origin, first)
    # (index, char, starts_clause) of each "();," that can end a clause.  The
    # spans are disjoint and in order, so one pass serves them all; it is not
    # bounded by a span's stop, since the words after a comma may lie past it.
    marks = (
        (at if origin is None else origin[at], ch, m.lastindex is not None)
        for m in _CLAUSE_RE.finditer(lowered, first)
        for at, ch in enumerate(m.group(), m.start())
        if ch in "();,"
    )
    mark = next(marks, None)
    fragments: list[SpanFragment] = []
    stops = [start for start, _, _, _ in accepted[1:]] + [len(text)]
    for (_, end, role, marker), stop in zip(accepted, stops):
        clause_end, depth = stop, 0
        while mark is not None and mark[0] < stop:
            at, ch, starts_clause = mark
            mark = next(marks, None)
            if at < end:
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth = max(0, depth - 1)
            elif depth == 0 and (ch == ";" or starts_clause):
                clause_end = at
                break
        span_text, span_start, span_end = _trim(text, end, clause_end)
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


def rationale_window(
    sentences: list[Sentence], decision_id: str, window: int
) -> list[Sentence]:
    """The sentences within ``window`` of a decision's own, in segmentation
    order: what a build hands ``attach_rationale``, so n decisions cost O(n)
    at any window.  The one reader of ``Config.window``."""
    own = decision_sentence_index(decision_id)
    return sentences[max(0, own - window) : own + window + 1]


def attach_rationale(
    decision: Decision,
    sentences: list[Sentence],
    markers: Mapping[str, tuple[str, ...]] | None = None,
) -> list[RationaleSpan]:
    """Rationale spans for a decision, from the sentences it is handed (in a
    build, its ``rationale_window``).

    The decision's own sentence is checked first; only when it has no marker
    are the other sentences scanned, nearest first, and at equal distance the
    following one before the preceding one.  Spans keep that order: own
    sentence first, then by distance.  ``markers`` is taken as
    ``extract_rationale`` takes it.
    """
    if any(s.artifact_id != decision.artifact_id for s in sentences):
        raise ValueError("sentences do not belong to the decision's artifact")
    by_index = {s.index: s for s in sentences}
    own_index = decision_sentence_index(decision.id)
    if own_index not in by_index:
        raise ValueError(f"decision sentence {own_index} missing from sentences")

    collected = [(f, True) for f in extract_rationale(by_index[own_index], markers)]
    if not collected:
        # The own sentence, at distance 0, sorts first.
        nearest = sorted(by_index, key=lambda i: (abs(i - own_index), i < own_index))
        collected = [
            (f, False) for i in nearest[1:] for f in extract_rationale(by_index[i], markers)
        ]
    spans = []
    for n, (fragment, same_sentence) in enumerate(collected):
        spans.append(
            RationaleSpan(
                id=f"{decision.id}/r{n}",
                decision_id=decision.id,
                role=fragment.role,
                marker=fragment.marker,
                text=fragment.text,
                start=fragment.start,
                end=fragment.end,
                same_sentence=same_sentence,
            )
        )
    return spans

"""Identify decision-carrying sentences with a deterministic lexicon scorer.

The scorer is additive and clamped to [0, 1]:

* +0.6 when a summary sentence (after an optional ``subsys:`` prefix) opens
  with an action verb,
* +0.4 when a cue phrase occurs anywhere as whole words,
* +0.3 when a non-summary sentence opens with an action verb in base form,
* -0.5 when a negative cue occurs as whole words.

The verbs and cues are the ``Config``'s ``action_verbs``, ``cue_phrases``
and ``negative_cues``, which ``config.from_dict`` has checked and lowered.
Without a cue only the summary scores above 0.3: above that, only the
summary (sentence 0) and the sentences where a ``str.find`` over the joined
lowered sentences meets a cue are scored.  Each sentence is lowered once, and
its offsets in the join come from the lowered lengths, so this holds for any
text, even where ``str.lower`` changes a length.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from datetime import datetime
from itertools import accumulate
from typing import Iterable, NamedTuple

from .config import Config
from .corpus import Artifact, Sentence

SUBSYSTEM_PREFIX_RE = re.compile(r"^[a-z0-9_, \-]+:\s*")
_FIRST_WORD_RE = re.compile(r"[a-z0-9_]+")
_NO_CUE_BOUND = min(1.0, max(0.0, 0.0 + 0.3))  # _score's floats: a verb, no cue


class Decision(NamedTuple):
    """An extracted decision sentence with provenance and score."""

    id: str
    text: str
    artifact_id: str
    timestamp: datetime
    score: float
    author: str


def decision_id(artifact_id: str, sentence_index: int) -> str:
    return f"{artifact_id}#{sentence_index}"


def decision_sentence_index(decision_id_: str) -> int:
    """Recover the sentence index a decision id encodes."""
    _, _, index = decision_id_.rpartition("#")
    try:
        return int(index)
    except ValueError as exc:
        raise ValueError(f"malformed decision id {decision_id_!r}") from exc


def strip_subsystem_prefix(text: str) -> str:
    """Drop a leading ``mm, oom:``-style subsystem prefix, if any."""
    return SUBSYSTEM_PREFIX_RE.sub("", text, count=1)


def _opens_with_verb(lower: str, verbs: frozenset[str]) -> bool:
    """Whether the lowered text ``lower`` starts with a word in ``verbs``."""
    match = _FIRST_WORD_RE.match(lower)
    return match is not None and match.group() in verbs


def _has_cue(text: str, cues: Iterable[str]) -> bool:
    """Whether a cue occurs as whole words: ``todo`` is not in ``mastodon``.

    A word boundary is required only at a cue end that is a word character,
    so ``?`` still matches ``remove it?``.
    """
    for cue in cues:
        if cue in text:
            head = r"\b" if re.match(r"\w", cue) else ""
            tail = r"\b" if re.match(r"\w", cue[-1:]) else ""
            if re.search(head + re.escape(cue) + tail, text):
                return True
    return False


def _score(lower: str, is_summary: bool, config: Config) -> float:
    score = 0.0
    if is_summary and _opens_with_verb(strip_subsystem_prefix(lower), config.action_verbs):
        score += 0.6
    if _has_cue(lower, config.cue_phrases):
        score += 0.4
    if not is_summary and _opens_with_verb(lower, config.action_verbs):
        score += 0.3
    if _has_cue(lower, config.negative_cues):
        score -= 0.5
    return min(1.0, max(0.0, score))


def is_summary_sentence(artifact: Artifact, sentence: Sentence) -> bool:
    return sentence.index == 0 and bool(artifact.summary) and sentence.start == 0


def extract_decisions(
    artifact: Artifact, sentences: list[Sentence], config: Config
) -> list[Decision]:
    """One decision per sentence whose score reaches the config's decision
    threshold; above ``_NO_CUE_BOUND`` only the summary and the cue
    sentences are scored, otherwise every sentence is."""
    if any(s.artifact_id != artifact.id for s in sentences):
        raise ValueError("sentences do not belong to the given artifact")
    threshold = config.thresholds.decision
    lowered = [s.text.lower() for s in sentences]
    indexes = range(len(sentences))
    if sentences and threshold > _NO_CUE_BOUND:
        # Sentence i's lowered text is a slice of joined; its cues start inside it.
        joined = " ".join(lowered)
        picked = {0} if is_summary_sentence(artifact, sentences[0]) else set()
        starts: list[int] = []
        for cue in config.cue_phrases:
            at = -1
            while (at := joined.find(cue, at + 1)) >= 0:
                starts = starts or [0, *accumulate(len(text) + 1 for text in lowered)]
                picked.add(bisect_right(starts, at) - 1)
        indexes = sorted(picked)
    decisions = []
    for i in indexes:
        sentence = sentences[i]
        is_summary = is_summary_sentence(artifact, sentence)
        score = _score(lowered[i], is_summary, config)
        if score >= threshold:
            decisions.append(
                Decision(
                    id=decision_id(artifact.id, sentence.index),
                    text=sentence.text,
                    artifact_id=artifact.id,
                    timestamp=artifact.timestamp,
                    score=score,
                    author=artifact.author,
                )
            )
    return decisions

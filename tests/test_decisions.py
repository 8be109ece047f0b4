from __future__ import annotations

import math
import re
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import D1, D2, D3, D4, D5
from helpers import at_decision_threshold, sentence_score
from rdgraph import (
    Artifact,
    default_config,
    extract_decisions,
    load_config,
    segment_sentences,
)
from rdgraph import decisions as decisions_module
from rdgraph.config import DEFAULTS, from_dict
from rdgraph.corpus import Sentence
from rdgraph.decisions import decision_sentence_index, is_summary_sentence


def sentence(text: str, index: int = 0) -> Sentence:
    return Sentence(artifact_id="a1", index=index, start=0, end=len(text), text=text)


def test_summary_with_action_verb_scores_point_six(config):
    assert sentence_score(
        sentence("mm, oom: introduce oom reaper"), config, is_summary=True
    ) >= 0.6


def test_give_summary_counts_as_a_decision(config):
    # "give" is in the default verb list, so summary evidence alone suffices.
    assert sentence_score(
        sentence("oom: give the dying task a higher priority"), config, is_summary=True
    ) >= 0.6


def test_plain_statement_scores_zero(config):
    assert sentence_score(sentence("The weather is nice."), config, is_summary=False) == 0.0


def test_non_summary_verb_scores_point_three(config):
    assert sentence_score(
        sentence("Add a dedicated kernel thread."), config, is_summary=False
    ) == pytest.approx(0.3)


def test_cue_phrase_adds_point_four(config):
    assert sentence_score(
        sentence("After review we decided to keep the lock."), config, is_summary=False
    ) == pytest.approx(0.4)


def test_negative_cue_subtracts(config):
    assert sentence_score(
        sentence("remove the reaper?"), config, is_summary=True
    ) == pytest.approx(0.1)


def test_negative_cues_match_whole_words_only(config):
    # "mastodon" contains "todo"; it must score like any other client name.
    mastodon = sentence_score(
        sentence("net: add mastodon client cache"), config, is_summary=True
    )
    matrix = sentence_score(
        sentence("net: add matrix client cache"), config, is_summary=True
    )
    assert mastodon == matrix == pytest.approx(0.6)
    assert sentence_score(
        sentence("net: add a client cache, todo"), config, is_summary=True
    ) == pytest.approx(0.1)


def test_cue_phrases_match_whole_words_only(config):
    assert sentence_score(
        sentence("We stayed undecided to the end."), config, is_summary=False
    ) == 0.0
    assert sentence_score(
        sentence("We decided to the end."), config, is_summary=False
    ) == pytest.approx(0.4)


@given(
    st.lists(
        st.sampled_from(["todo", "TODO", "mas", "n", "_", " ", "-", "?"]), max_size=8
    ).map("".join)
)
@settings(max_examples=200, deadline=None)
def test_word_cue_matches_exactly_the_whole_words(config, tail):
    text = "add " + tail
    negative = "todo" in re.findall(r"\w+", text.lower()) or "?" in text
    expected = 0.1 if negative else 0.6
    assert sentence_score(sentence(text), config, is_summary=True) == pytest.approx(
        expected
    )


def test_score_is_clamped_to_unit_interval(config):
    score = sentence_score(
        sentence("oom: remove the thing we decided to keep"), config, is_summary=True
    )
    assert score == 1.0


def make_artifact(summary: str, body: str = "") -> Artifact:
    return Artifact(
        id="a1",
        uri="git:a1",
        author="A <a@x>",
        timestamp=datetime(2020, 1, 1, tzinfo=timezone.utc),
        summary=summary,
        body=body,
        kind="commit",
    )


def test_extract_finds_the_reaper_decision(fixture_artifacts, config):
    artifact = fixture_artifacts[3]
    sentences = segment_sentences(artifact, config.abbreviations)
    decisions = extract_decisions(artifact, sentences, config)
    assert [d.text for d in decisions] == ["mm, oom: introduce oom reaper"]
    assert decisions[0].artifact_id == artifact.id
    assert decisions[0].timestamp == artifact.timestamp
    assert decisions[0].score >= config.thresholds.decision


def test_extract_no_qualifying_sentence_gives_empty_list(config):
    artifact = make_artifact("notes about the weather", "It was nice. Nothing happened.")
    sentences = segment_sentences(artifact)
    assert extract_decisions(artifact, sentences, config) == []


def test_extract_threshold_zero_takes_every_sentence(config):
    artifact = make_artifact("notes", "One sentence. Two sentences.")
    sentences = segment_sentences(artifact)
    decisions = extract_decisions(artifact, sentences, at_decision_threshold(config, 0.0))
    assert len(decisions) == len(sentences)


def test_default_scorer_on_fixture_extracts_exactly_the_five_summaries(
    fixture_artifacts, config
):
    extracted = []
    for artifact in fixture_artifacts:
        sentences = segment_sentences(artifact, config.abbreviations)
        extracted.extend(
            extract_decisions(artifact, sentences, config)
        )
    assert [d.id for d in extracted] == [D1, D2, D3, D4, D5]
    assert [d.text for d in extracted] == [
        "oom: give the dying task a higher priority",
        "memcg: give current access to memory reserves if it's trying to die",
        "oom-kill: remove boost_dying_task_prio()",
        "mm, oom: introduce oom reaper",
        "mm: introduce process_mrelease system call",
    ]


def test_decision_ids_encode_artifact_and_sentence(config):
    artifact = make_artifact("x: add a lock", "Remove the old lock. Use the new one.")
    sentences = segment_sentences(artifact)
    decisions = extract_decisions(artifact, sentences, at_decision_threshold(config, 0.0))
    assert len({d.id for d in decisions}) == len(decisions)
    assert decisions[0].id == "a1#0"


def test_sentences_must_belong_to_artifact(config):
    artifact = make_artifact("x: fix")
    alien = Sentence(artifact_id="other", index=0, start=0, end=3, text="foo")
    with pytest.raises(ValueError, match="belong"):
        extract_decisions(artifact, [alien], config)


def test_config_lowers_the_scorer_lexicons(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"lexicons": {"action_verbs": ["Add"]}}')
    config = load_config(str(path))
    assert config.action_verbs == frozenset({"add"})
    assert sentence_score(
        sentence("x: add a lock"), config, is_summary=True
    ) == pytest.approx(0.6)


@given(
    body=st.lists(
        st.sampled_from(
            ["Add a lock here.", "The weather is nice.", "We decided to punt.", "remove it?"]
        ),
        max_size=4,
    ).map(" ".join),
    low=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    high=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=100)
def test_lowering_the_threshold_never_removes_a_decision(config, body, low, high):
    low, high = min(low, high), max(low, high)
    artifact = make_artifact("x: add a lock", body)
    sentences = segment_sentences(artifact)
    strict = extract_decisions(artifact, sentences, at_decision_threshold(config, high))
    loose = extract_decisions(artifact, sentences, at_decision_threshold(config, low))
    assert {d.id for d in strict} <= {d.id for d in loose}


# A second lexicon whose cues hold punctuation, can overlap themselves ("na
# na" occurs twice in "na na na") and leave ASCII ("wir w\u00e4hlten").
_PUNCTUATED = from_dict(
    {
        **DEFAULTS,
        "lexicons": {
            **DEFAULTS["lexicons"],
            "cue_phrases": ["e.g.", "-->", "na na", "wir w\u00e4hlten", "Agreed To"],
            "negative_cues": ["?!", "todo"],
        },
    }
)

# Every cue and negative cue of both lexicons, cues in capitals, words that
# hold a cue but not as whole words, halves of a cue that a paragraph break
# can part, and non-ASCII text, whose lowering can change lengths ("\u0130")
# or match nothing ASCII ("\u017f" is a long s).
_DEFAULTS = default_config()
SCORER_PIECES = sorted(
    _DEFAULTS.cue_phrases
    | _DEFAULTS.negative_cues
    | _PUNCTUATED.cue_phrases
    | _PUNCTUATED.negative_cues
) + [
    "DECIDED TO", "TODO", "We Chose", "Should We", "add", "Remove ", "use ",
    "mastodon", "undecided to", "\u0130", "\u017f", "\u03a3", "x", " ", ", ",
    ". ", ". The ", "\n\n", "agreed", "to", "na ", "Wir W\u00e4hlten",
]
# The largest threshold at which pruning is off, and the smallest at which it
# is on: a sentence that holds no cue and opens with a verb scores 0.3.
THRESHOLDS = [0.0, 0.3, math.nextafter(0.3, 1.0), 0.4, 0.5, 0.6, 0.7, 1.0]


@given(
    lexicon=st.sampled_from([_DEFAULTS, _PUNCTUATED]),
    summary=st.lists(st.sampled_from(SCORER_PIECES), max_size=6).map("".join),
    body=st.lists(st.sampled_from(SCORER_PIECES), max_size=24).map("".join),
    threshold=st.sampled_from(THRESHOLDS),
)
# A cue that a paragraph break splits, repeated cues, overlapping ones, a
# non-ASCII artifact, a cue that overlaps one that a paragraph break splits,
# and a summary whose lowering grows by 20 characters ("\u0130" lowers to two).
@example(_DEFAULTS, "x: add a lock", "We agreed\n\nto punt. Use it.", 0.5)
@example(_DEFAULTS, "notes", "We decided to go. Decided to stay, decided to wait.", 0.5)
@example(_PUNCTUATED, "use na na na", "Na na na na. So na na?! Add -->, e.g. here.", 0.4)
@example(_PUNCTUATED, "remove it", "Wir w\u00e4hlten es. Add it.", 0.7)
@example(_PUNCTUATED, "notes", "Add na\n\nna na", 0.4)
@example(_DEFAULTS, "notes " + "\u0130" * 20, "Use it, we decided to. The end.", 0.5)
@settings(max_examples=400, deadline=None)
def test_extract_decisions_keeps_each_sentence_that_score_decision_keeps(
    lexicon, summary, body, threshold
):
    # extract_decisions scores only the sentences that can reach a threshold
    # above 0.3.
    artifact = make_artifact(summary, body)
    sentences = segment_sentences(artifact, lexicon.abbreviations)
    scores = [
        (s.index, sentence_score(s, lexicon, is_summary_sentence(artifact, s)))
        for s in sentences
    ]
    decisions = extract_decisions(artifact, sentences, at_decision_threshold(lexicon, threshold))
    assert [(decision_sentence_index(d.id), d.score) for d in decisions] == [
        (index, score) for index, score in scores if score >= threshold
    ]
    assert all(d.text == sentences[decision_sentence_index(d.id)].text for d in decisions)


def test_a_threshold_above_point_three_scores_only_the_summary_and_cue_sentences(
    monkeypatch, config
):
    calls = []
    real = decisions_module._score
    monkeypatch.setattr(
        decisions_module, "_score", lambda *args: calls.append(args) or real(*args)
    )
    filler = " ".join(f"The weather on day {n} was nice." for n in range(60))
    artifact = make_artifact("x: add a lock", filler + " Use it, as we decided to.")
    sentences = segment_sentences(artifact, config.abbreviations)
    assert len(sentences) == 62 and artifact.body.isascii()

    def scored(threshold: float) -> int:
        calls.clear()
        decisions = extract_decisions(artifact, sentences, at_decision_threshold(config, threshold))
        assert [decision_sentence_index(d.id) for d in decisions] == [0, 61]
        return len(calls)

    assert scored(config.thresholds.decision) <= 2
    assert scored(0.3) == 62

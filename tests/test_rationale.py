from __future__ import annotations

import re
import time
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_attach_rationale, reference_extract_rationale
from rdgraph import (
    Artifact,
    attach_rationale,
    build_pipeline,
    default_config,
    extract_rationale,
    load_config,
    normalized_text,
    pipeline,
    segment_sentences,
)
from rdgraph.corpus import Sentence
from rdgraph.decisions import Decision
from rdgraph.rationale import (
    _BY_GERUND_RE,
    CAUSE,
    DEFAULT_MARKERS,
    MANNER,
    PURPOSE,
    ROLES,
    _marker_pattern,
    rationale_window,
)


def sentence(text: str, index: int = 0, start: int = 0) -> Sentence:
    return Sentence(
        artifact_id="a1", index=index, start=start, end=start + len(text), text=text
    )


def test_purpose_span_from_the_priority_boost_sentence():
    fragments = extract_rationale(
        sentence("Give the dying task a higher priority so that it can exit() soon, freeing memory")
    )
    assert len(fragments) == 1
    fragment = fragments[0]
    assert fragment.role == PURPOSE
    assert fragment.marker == "so that"
    assert fragment.text == "it can exit() soon, freeing memory"


def test_manner_span_from_the_mrelease_sentence():
    fragments = extract_rationale(
        sentence(
            "This way the memory is freed in a more controllable way with CPU "
            "affinity and priority of the caller."
        )
    )
    assert len(fragments) == 1
    assert fragments[0].role == MANNER
    assert fragments[0].text == (
        "the memory is freed in a more controllable way with CPU affinity "
        "and priority of the caller"
    )


def test_no_marker_no_fragments():
    assert extract_rationale(sentence("Hello world.")) == []


def test_cause_marker():
    fragments = extract_rationale(sentence("Drop the lock because the path is hot."))
    assert [(f.role, f.text) for f in fragments] == [(CAUSE, "the path is hot")]


def test_clause_ends_at_comma_before_finite_clause():
    fragments = extract_rationale(
        sentence("Use a helper thread because the victim may never run, and the system hangs.")
    )
    assert fragments[0].text == "the victim may never run"


def test_clause_continues_over_gerund_comma():
    fragments = extract_rationale(sentence("Boost it so that it exits, freeing memory early."))
    assert fragments[0].text == "it exits, freeing memory early"


def test_clause_ends_at_semicolon():
    fragments = extract_rationale(sentence("Split it up because the file grew too big; nobody reads it."))
    assert fragments[0].text == "the file grew too big"


def test_this_way_only_counts_sentence_initially():
    assert extract_rationale(sentence("We keep it this way for now.")) == []


@pytest.mark.parametrize("spelling", ["this way", "This way", "this  way"])
def test_a_passed_this_way_marker_counts_only_sentence_initially(spelling):
    markers = {MANNER: (spelling,)}
    inside = sentence("We keep it this way for the cache to stay warm.")
    assert extract_rationale(inside, markers) == []
    assert reference_extract_rationale(inside, markers) == []
    opening = extract_rationale(sentence("This way the cache stays warm."), markers)
    assert [(f.role, f.marker, f.text) for f in opening] == [
        (MANNER, spelling, "the cache stays warm")
    ]


@pytest.mark.parametrize("spelling", ["This  way", "this\\tway"])
def test_config_gives_this_way_one_spelling(tmp_path, spelling):
    path = tmp_path / "config.json"
    path.write_text('{"lexicons": {"markers": {"manner": ["%s"]}}}' % spelling)
    markers = load_config(str(path)).markers
    assert markers[MANNER] == ("this way",)
    inside = sentence("We keep it this way for the cache to stay warm.")
    assert extract_rationale(inside, markers) == []
    opening = extract_rationale(sentence("This way the cache stays warm."), markers)
    assert [(f.role, f.marker, f.text) for f in opening] == [
        (MANNER, "this way", "the cache stays warm")
    ]


def test_by_gerund_manner_pattern():
    fragments = extract_rationale(sentence("Cut latency by batching the writes aggressively."))
    assert [(f.role, f.marker, f.text) for f in fragments] == [
        (MANNER, "by", "batching the writes aggressively")
    ]


def test_marker_requires_word_boundaries():
    assert extract_rationale(sentence("We sincerely hope it works.")) == []


def test_multiple_markers_emit_multiple_fragments():
    fragments = extract_rationale(
        sentence("Add a cache because lookups dominate so that reads stay cheap.")
    )
    assert [f.role for f in fragments] == [CAUSE, PURPOSE]


def test_fragment_offsets_are_absolute():
    text = "Drop it because the lock is gone."
    s = sentence(text, index=3, start=100)
    (fragment,) = extract_rationale(s)
    local_start = fragment.start - 100
    assert text[local_start : fragment.end - 100] == fragment.text


def make_artifact(summary: str, body: str) -> Artifact:
    return Artifact(
        id="a1",
        uri="git:a1",
        author="A <a@x>",
        timestamp=datetime(2020, 1, 1, tzinfo=timezone.utc),
        summary=summary,
        body=body,
        kind="commit",
    )


def make_decision(artifact: Artifact, index: int) -> Decision:
    return Decision(
        id=f"{artifact.id}#{index}",
        text="",
        artifact_id=artifact.id,
        timestamp=artifact.timestamp,
        score=1.0,
        author=artifact.author,
    )


def test_attach_own_sentence_span_with_window_zero():
    artifact = make_artifact(
        "Give the dying task a higher priority so that it can exit() soon, freeing memory",
        "Unrelated follow-up text.",
    )
    sentences = segment_sentences(artifact)
    decision = make_decision(artifact, 0)
    spans = attach_rationale(decision, rationale_window(sentences, decision.id, 0))
    assert len(spans) == 1
    assert spans[0].same_sentence is True
    assert spans[0].role == PURPOSE
    assert spans[0].text == "it can exit() soon, freeing memory"


def test_attach_scans_following_sentence_when_own_has_no_marker():
    artifact = make_artifact(
        "mm: introduce process_mrelease system call",
        "This way the memory is freed in a more controllable way.",
    )
    sentences = segment_sentences(artifact)
    decision = make_decision(artifact, 0)
    spans = attach_rationale(decision, rationale_window(sentences, decision.id, 1))
    assert len(spans) == 1
    assert spans[0].same_sentence is False
    assert spans[0].role == MANNER


def test_attach_window_zero_does_not_scan_neighbors():
    artifact = make_artifact(
        "mm: introduce process_mrelease system call",
        "This way the memory is freed in a more controllable way.",
    )
    sentences = segment_sentences(artifact)
    decision = make_decision(artifact, 0)
    assert attach_rationale(decision, rationale_window(sentences, decision.id, 0)) == []


def test_attach_no_markers_anywhere_gives_empty_list():
    artifact = make_artifact("x: fix the build", "It was broken. Now it is not.")
    sentences = segment_sentences(artifact)
    decision = make_decision(artifact, 0)
    assert attach_rationale(decision, rationale_window(sentences, decision.id, 2)) == []


def test_attach_prefers_own_sentence_and_skips_window():
    artifact = make_artifact(
        "Boost it because exits block",
        "Another one because of other things.",
    )
    sentences = segment_sentences(artifact)
    decision = make_decision(artifact, 0)
    spans = attach_rationale(decision, rationale_window(sentences, decision.id, 2))
    assert all(s.same_sentence for s in spans)
    assert len(spans) == 1


def test_attach_scans_preceding_sentences_after_following_ones():
    artifact = make_artifact(
        "notes",
        "We do it because the cache is cold. Add the prefetch step. Plain text here.",
    )
    sentences = segment_sentences(artifact)
    decision = make_decision(artifact, 2)
    spans = attach_rationale(decision, rationale_window(sentences, decision.id, 1))
    assert len(spans) == 1
    assert spans[0].role == CAUSE
    assert spans[0].same_sentence is False


def test_attach_rejects_foreign_sentences():
    artifact = make_artifact("x: fix", "")
    alien = Sentence(artifact_id="zz", index=0, start=0, end=3, text="foo")
    with pytest.raises(ValueError, match="artifact"):
        attach_rationale(make_decision(artifact, 0), [alien])


def test_span_ids_are_stable_and_unique():
    artifact = make_artifact(
        "Split it because parsing dominates so that reads stay cheap",
        "",
    )
    sentences = segment_sentences(artifact)
    decision = make_decision(artifact, 0)
    spans = attach_rationale(decision, rationale_window(sentences, decision.id, 0))
    assert [s.id for s in spans] == ["a1#0/r0", "a1#0/r1"]


def test_spans_are_reproducible_from_offsets(fixture_artifacts, fixture_graph):
    texts = {a.id: normalized_text(a) for a in fixture_artifacts}
    for span in fixture_graph.rationales.values():
        artifact_id = fixture_graph.decisions[span.decision_id].artifact_id
        assert texts[artifact_id][span.start : span.end] == span.text


def test_spans_never_cross_sentence_boundaries(fixture_artifacts, config):
    for artifact in fixture_artifacts:
        sentences = segment_sentences(artifact, config.abbreviations)
        bounds = {(s.start, s.end) for s in sentences}
        for s in sentences:
            for fragment in extract_rationale(s, config.markers):
                assert any(
                    start <= fragment.start and fragment.end <= end
                    for start, end in bounds
                )


_BODY_SENTENCES = st.lists(
    st.sampled_from(
        [
            "Boost it so that it exits quickly.",
            "The cache was cold.",
            "We dropped it because the lock contended.",
            "This way the pages drain faster.",
            "Plain filler sentence.",
        ]
    ),
    max_size=4,
).map(" ".join)


@given(body=_BODY_SENTENCES, small=st.integers(0, 3), large=st.integers(0, 3))
@settings(max_examples=100)
def test_growing_the_window_never_removes_spans(body, small, large):
    small, large = min(small, large), max(small, large)
    artifact = make_artifact("x: tidy things", body)
    sentences = segment_sentences(artifact)
    decision = make_decision(artifact, 0)

    def spans(window):
        near = rationale_window(sentences, decision.id, window)
        return {(s.role, s.text, s.start) for s in attach_rationale(decision, near)}

    assert spans(small) <= spans(large)


def test_clause_scan_lowers_dotted_capital_i_and_kelvin_sign():
    # "\u0130tem" lowers to "i\u0307tem", so the first word after the comma is
    # the subject "i" and the clause ends there.
    fragments = extract_rationale(sentence("Do it because x fails, \u0130tem breaks."))
    assert fragments[0].text == "x fails"
    # The Kelvin sign lowers to the word "k", which hides the subject "we".
    fragments = extract_rationale(sentence("Do it because x fails, \u212a we said."))
    assert fragments[0].text == "x fails, \u212a we said"
    # Words are found after the comma by their place in the original text,
    # although each "\u0130" lowers to two characters.
    fragments = extract_rationale(sentence("Do it because x \u0130\u0130a, so be it."))
    assert fragments[0].text == "x \u0130\u0130a, so be it"


# Test-side copy of the clause scan the package shipped before the words
# after a comma came from one token pass per sentence.
_REFERENCE_WORD_RE = re.compile(r"[A-Za-z0-9_']+")
_REFERENCE_SUBJECTS = frozenset(
    {"it", "we", "they", "he", "she", "i", "you", "this", "that", "there",
     "the", "a", "an"}
)
_REFERENCE_COORDINATORS = frozenset({"and", "but", "or", "so", "yet", "nor"})


def _reference_clause_end(text, start):
    i = start
    depth = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0 and ch == ";":
            return i
        elif depth == 0 and ch == ",":
            following = _REFERENCE_WORD_RE.findall(text[i + 1 :].lower())
            if following:
                first = following[0]
                second = following[1] if len(following) > 1 else ""
                if first in _REFERENCE_SUBJECTS:
                    return i
                if first in _REFERENCE_COORDINATORS and second in _REFERENCE_SUBJECTS:
                    return i
        i += 1
    return len(text)


def _reference_fragments(text):
    """(role, marker, text, start, end) of every fragment, via the old scan."""
    hits = []
    for role in ROLES:
        for marker in DEFAULT_MARKERS[role]:
            for match in _marker_pattern(marker).finditer(text):
                if marker == "this way" and match.start() != 0:
                    continue
                hits.append((match.start(), match.end(), role, marker))
    for match in _BY_GERUND_RE.finditer(text):
        hits.append((match.start(), match.end(), MANNER, "by"))
    hits.sort(key=lambda h: (h[0], -(h[1] - h[0])))
    accepted = []
    last_end = -1
    for start, end, role, marker in hits:
        if start < last_end:
            continue
        last_end = end
        accepted.append((start, end, role, marker))
    out = []
    for n, (start, end, role, marker) in enumerate(accepted):
        # A span stops at the next accepted marker, so spans never overlap.
        next_start = accepted[n + 1][0] if n + 1 < len(accepted) else len(text)
        chunk = text[end : min(_reference_clause_end(text, end), next_start)]
        stripped = chunk.strip(" \t\n.,;:!?")
        if stripped:
            span_start = end + chunk.find(stripped)
            out.append((role, marker, stripped, span_start, span_start + len(stripped)))
    return out


CLAUSE_PIECES = list("\n.!?(),;' aAiIkKtTwW\u0130\u212a") + [
    "so that ", "because ", "This way ", "by doing ", " it", " the", " and",
    " so", ", we", ", and it", ", \u0130t", ", \u212ait", "\u03a3",
    ",", ",,", ",(", ", (", " nor", " yet we",
]
clause_texts = st.lists(st.sampled_from(CLAUSE_PIECES), max_size=40).map("".join)


@given(text=clause_texts, offset=st.integers(0, 50))
# The commas of a chain share the words after its last comma, so the first
# comma of the chain ends the clause.
@example(text="so that x,,we", offset=0)
@example(text="so that x,(,we", offset=0)
@example(text="so that x, and,, we", offset=0)
# A chain that crosses ")": its first comma is at depth 1, its second ends
# the clause.
@example(text="so that (x,), we", offset=0)
# A comma at depth 1 is no boundary, although a clause follows it; ";" is.
@example(text="so that (x, ) ; we", offset=0)
@settings(max_examples=500)
def test_extraction_equals_the_reference_clause_scan(text, offset):
    fragments = extract_rationale(sentence(text, start=offset))
    assert [
        (f.role, f.marker, f.text, f.start - offset, f.end - offset) for f in fragments
    ] == _reference_fragments(text)


MARKER_PIECES = [
    "so that ", "in order to ", "such that ", "so we can ", "because ",
    "since ", "due to ", "This way ", "by doing ", "it runs ", "we add x ",
    "the cache ", ", ", ", we ", "; ", "(", ") ",
]


@given(
    text=st.lists(st.sampled_from(MARKER_PIECES), max_size=30).map("".join),
    offset=st.integers(0, 50),
)
@settings(max_examples=500)
def test_spans_of_a_sentence_are_disjoint_and_in_order(text, offset):
    fragments = extract_rationale(sentence(text, start=offset))
    for fragment in fragments:
        assert offset <= fragment.start < fragment.end <= offset + len(text)
        assert text[fragment.start - offset : fragment.end - offset] == fragment.text
    for before, after in zip(fragments, fragments[1:]):
        assert before.end <= after.start
    assert sum(len(f.text) for f in fragments) <= len(text)


# Markers with regex metacharacters, one that is a word-prefix of another
# ("so" of "so that"), "by" beside the "by <gerund>" pattern, non-ASCII ones,
# ones that overlap their own next match ("so so", "a.a") and one in capitals,
# which only a library call can pass (the config lowers markers); the same
# marker may be drawn for two roles.
MARKER_POOL = [
    "so that", "so", "because", "since", "this way", "by", "by means of",
    "c++", "a+b", "[x]", "e.g. (so)", r"\d", "so.that", "stra\u00dfe", "\u0130t",
    "so so", "a.a", "So That", "This  Way", "this\tway",
]
PRESCAN_PIECES = [
    "so that ", "SO THAT ", "So ", "so ", "sothat ", "so.that ", "because ",
    "BECAUSE ", "since ", "this way ", "This Way ", "THIS WAY ", "by ",
    "by doing ", "By Running ", "BY MEANS OF ", "by means of ", "c++ ", "a+b ",
    "[x] ", "\\d ", "7 ", "e.g. (so) ", "E.G. (SO) ", "stra\u00dfe ",
    "STRASSE ", "\u0130t ", "it ", "\u212a ", "\u03a3 ", "we add x ", ", we ",
    ", and it ", "; ", "(", ") ", ".", "it runs ", "so so so ", "a.a.a ",
    "this  way ", "becau\u017fe ",
]
marker_maps = st.one_of(
    st.none(),
    st.dictionaries(
        st.sampled_from(ROLES),
        st.one_of(
            st.lists(st.sampled_from(MARKER_POOL), max_size=4).map(tuple),
            st.lists(st.sampled_from(MARKER_POOL), max_size=4),
        ),
    ),
)


@given(
    text=st.lists(st.sampled_from(PRESCAN_PIECES), max_size=20).map("".join),
    markers=marker_maps,
    offset=st.integers(0, 50),
)
@example(
    text="We add x so that it runs, This way by doing it BY MEANS OF c++ ",
    markers={PURPOSE: ("so", "so that"), CAUSE: ("so that",), MANNER: ("by", "this way")},
    offset=3,
)
@example(text="THIS WAY it runs", markers=None, offset=0)
@example(text="it runs this way", markers=None, offset=0)
@example(text="\u0130t runs e.g. (so) a+b", markers={CAUSE: ("e.g. (so)", "a+b", "\u0130t")}, offset=0)
@example(text="it runs by doing it", markers={CAUSE: ("because",)}, offset=0)
# Under IGNORECASE "s" matches the long s "\u017f", which lowering keeps.
@example(text="it runs becau\u017fe x", markers=None, offset=0)
# "so so" matches at 2, inside the accepted "x so", so its own next match
# starts at 8 and finds none: one purpose span, "so so" at 5-10.
@example(text="x so so so", markers={PURPOSE: ("x so",), CAUSE: ("so so",)}, offset=0)
# A blank marker matches, empty, at every word boundary, and the last of the
# empty hits at one place keeps the span.
@example(text="it runs, so we add x", markers={PURPOSE: ("",), CAUSE: ("", "so")}, offset=2)
@settings(max_examples=500)
def test_extraction_equals_the_scan_without_a_prescan(text, markers, offset):
    s = sentence(text, start=offset)
    assert extract_rationale(s, markers) == reference_extract_rationale(s, markers)


ATTACH_SENTENCES = [
    "Use the lock as we decided to, so that it exits.",
    "Add a cache since we opted to.",
    "Move it as agreed to.",
    "The cache was cold because of load.",
    "This way the pages drain faster.",
    "Replace it by doing less, as we chose.",
    "Plain filler sentence.",
]


@given(
    body=st.lists(st.sampled_from(ATTACH_SENTENCES), max_size=12).map(" ".join),
    own=st.integers(0, 12),
    window=st.integers(0, 14),
)
@example("This way it drains. Plain filler sentence. This way it works.", 2, 1)
@settings(max_examples=200, deadline=None)
def test_attach_over_a_window_scans_as_the_window_loop_did(body, own, window):
    """Handed its window, ``attach_rationale`` scans nearest first and, at
    equal distance, the following sentence first, as a loop over the
    distances up to the window did over all of the artifact's sentences."""
    artifact = make_artifact("x: tidy things", body)
    sentences = segment_sentences(artifact)
    decision = make_decision(artifact, own % len(sentences))
    near = rationale_window(sentences, decision.id, window)
    expected = reference_attach_rationale(decision, sentences, window)
    assert attach_rationale(decision, near) == expected


@given(
    summary=st.sampled_from(["x: tidy things", "mm: add a lock so that it works"]),
    body=st.lists(st.sampled_from(ATTACH_SENTENCES), max_size=12).map(" ".join),
    window=st.integers(0, 3),
)
@settings(max_examples=100, deadline=None)
def test_build_attaches_each_decision_as_attach_rationale_over_all_sentences(
    summary, body, window
):
    config = default_config()._replace(window=window)
    artifact = make_artifact(summary, body)
    sentences = segment_sentences(artifact, config.abbreviations)
    graph = build_pipeline([artifact], config)
    for decision in graph.decisions.values():
        near = rationale_window(sentences, decision.id, window)
        expected = attach_rationale(decision, near, config.markers)
        owned = graph.rationale_edges.get(decision.id, ())
        assert {i: graph.rationales[i] for i in owned} == {s.id: s for s in expected}


def test_build_hands_attach_rationale_only_the_window(monkeypatch):
    # Passing every sentence of the artifact made n decisions cost O(n^2).
    seen = []

    def recording(decision, sentences, markers):
        seen.append(len(sentences))
        return attach_rationale(decision, sentences, markers)

    monkeypatch.setattr(pipeline, "attach_rationale", recording)
    body = " ".join(ATTACH_SENTENCES * 20)
    config = default_config()
    build_pipeline([make_artifact("mm: add a lock so that it works", body)], config)
    assert len(seen) > 40
    assert max(seen) == 2 * config.window + 1


def test_repeated_markers_yield_no_more_span_bytes_than_the_sentence():
    # Each span used to run to the clause end, over every later marker:
    # 32 MB of span text from this 32 KB sentence.
    text = "we add x " + "so that it runs " * 2000
    fragments = extract_rationale(sentence(text))
    assert len(fragments) == 2000
    assert {f.text for f in fragments} == {"it runs"}
    assert sum(len(f.text.encode("utf-8")) for f in fragments) <= len(text.encode("utf-8"))


LONG_BODY = 200_000


@pytest.mark.parametrize(
    "body",
    [
        "e.g. x " * (LONG_BODY // 7),
        "so that a, " * (LONG_BODY // 11),
        "so that x" + ", " * (LONG_BODY // 2),
        "so that x" + "," * LONG_BODY + " w",
        "a." * (LONG_BODY // 2),
        "a" + "." * LONG_BODY + "x",
        "this way " * (LONG_BODY // 9),
        "this way so that " * (LONG_BODY // 17),
        "so that x" + ", (" * (LONG_BODY // 3),
        "so that x, and" + ",," * (LONG_BODY // 2) + " we",
    ],
    ids=[
        "abbreviations", "clauses", "comma-space-run", "comma-run", "dotted-word",
        "terminator-run",
        "refused-markers", "refused-and-accepted-markers",
        "comma-paren-run", "coordinator-comma-run",
    ],
)
def test_long_body_segments_and_extracts_in_linear_time(body):
    # The quadratic scans took minutes on each of these 200 KB bodies.
    started = time.perf_counter()
    sentences = segment_sentences(make_artifact("", body))
    fragments = [f for s in sentences for f in extract_rationale(s)]
    assert time.perf_counter() - started < 1.0
    assert "".join(s.text for s in sentences).replace(" ", "") == body.replace(" ", "")
    assert all(f.text for f in fragments)

from __future__ import annotations

import re
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdgraph import (
    Artifact,
    CorpusError,
    dumps_artifacts,
    normalized_text,
    parse_git_log,
    parse_jsonl,
    segment_sentences,
)
from rdgraph.corpus import _SEGMENT_STOP_RE

RS = "\x1e"
FS = "\x1f"


def record(*fields: str) -> str:
    return FS.join(fields) + RS


def test_parse_git_log_single_record():
    raw = record("abc123", "Ada <ada@x>", "2020-01-02T03:04:05+00:00", "mm: fix it", "Body text.")
    artifacts = parse_git_log(raw)
    assert len(artifacts) == 1
    a = artifacts[0]
    assert a.id == "abc123"
    assert a.summary == "mm: fix it"
    assert a.uri == "git:abc123"
    assert a.kind == "commit"
    assert a.timestamp == datetime(2020, 1, 2, 3, 4, 5, tzinfo=timezone.utc)


def test_parse_git_log_empty_input():
    assert parse_git_log("") == []
    assert parse_git_log("\n") == []


def test_parse_git_log_moves_trailers_out_of_body():
    body = "Fix the thing.\n\nAcked-by: A <a@x>"
    raw = record("abc", "A <a@x>", "2020-01-01T00:00:00Z", "s: fix", body)
    (artifact,) = parse_git_log(raw)
    assert artifact.trailers == {"Acked-by": ("A <a@x>",)}
    assert "Acked-by" not in artifact.body
    assert artifact.body == "Fix the thing."


def test_parse_git_log_keeps_trailer_lookalikes_in_running_prose():
    body = "Note: this is prose, not a trailer.\nIt continues."
    raw = record("abc", "A <a@x>", "2020-01-01T00:00:00Z", "s: fix", body)
    (artifact,) = parse_git_log(raw)
    assert artifact.trailers == {}
    assert "Note: this is prose" in artifact.body


def test_parse_git_log_wrong_field_count_names_record():
    raw = record("abc", "A <a@x>", "2020-01-01T00:00:00Z", "only four")
    with pytest.raises(CorpusError, match="record 1"):
        parse_git_log(raw)


def test_parse_git_log_bad_date():
    raw = record("abc", "A <a@x>", "yesterday", "s: fix", "")
    with pytest.raises(CorpusError, match="timestamp"):
        parse_git_log(raw)


def test_parse_git_log_timestamp_out_of_range_in_utc():
    raw = record("abc", "A <a@x>", "0001-01-01T00:00:00+05:00", "s: fix", "")
    with pytest.raises(CorpusError, match="record 1: unparseable timestamp"):
        parse_git_log(raw)


def test_parse_jsonl_keeps_surrogate_pairs():
    line = '{"id": "m1", "uri": "u", "author": "a", "timestamp": "2021-05-01T10:00:00Z", "summary": "s", "body": "\\ud83d\\ude00"}'
    (artifact,) = parse_jsonl(line)
    assert artifact.body == "\U0001F600"
    # An escaped backslash before "ud800" is text, not a surrogate escape.
    (artifact,) = parse_jsonl(line.replace("\\ud83d\\ude00", "\\\\ud800"))
    assert artifact.body == "\\ud800"


def test_parse_git_log_duplicate_hash():
    raw = record("abc", "A <a@x>", "2020-01-01T00:00:00Z", "s: one", "") + "\n" + record(
        "abc", "A <a@x>", "2020-01-02T00:00:00Z", "s: two", ""
    )
    with pytest.raises(CorpusError, match="duplicate"):
        parse_git_log(raw)


def test_parse_git_log_drops_quoted_reply_lines():
    body = "Real content.\n> quoted old text\nMore content."
    raw = record("abc", "A <a@x>", "2020-01-01T00:00:00Z", "s: fix", body)
    (artifact,) = parse_git_log(raw)
    assert "quoted old text" not in artifact.body
    assert "Real content." in artifact.body


def test_parse_jsonl_round_trips():
    line = (
        '{"id": "m1", "uri": "mail:m1", "author": "A <a@x>",'
        ' "timestamp": "2021-05-01T10:00:00Z", "summary": "a subject",'
        ' "body": "some text", "trailers": {"Link": ["https://x"]}, "kind": "mail"}'
    )
    artifacts = parse_jsonl(line)
    assert len(artifacts) == 1
    assert parse_jsonl(dumps_artifacts(artifacts)) == artifacts


def test_parse_jsonl_skips_blank_lines():
    line = '{"id": "m1", "uri": "u", "author": "a", "timestamp": "2021-05-01T10:00:00Z", "summary": "s", "body": "b"}'
    artifacts = parse_jsonl("\n\n" + line + "\n\n")
    assert len(artifacts) == 1
    assert artifacts[0].kind == "other"
    assert artifacts[0].trailers == {}


def test_parse_jsonl_duplicate_id_is_an_error():
    line = '{"id": "m1", "uri": "u", "author": "a", "timestamp": "2021-05-01T10:00:00Z", "summary": "s", "body": "b"}'
    with pytest.raises(CorpusError, match="line 2.*duplicate"):
        parse_jsonl(line + "\n" + line)


@pytest.mark.parametrize(
    "mutation, match",
    [
        ('{"uri": "u"}', "missing field"),
        ('{"id": 3, "uri": "u", "author": "a", "timestamp": "2021-05-01T10:00:00Z", "summary": "s", "body": "b"}', "must be a string"),
        ('{"id": "m", "uri": "u", "author": "a", "timestamp": "2021-05-01T10:00:00Z", "summary": "s", "body": "b", "extra": 1}', "unknown fields"),
        ('{"id": "m", "uri": "u", "author": "a", "timestamp": "not a date", "summary": "s", "body": "b"}', "timestamp"),
        ('{"id": "m", "uri": "u", "author": "a", "timestamp": "2021-05-01T10:00:00Z", "summary": "s", "body": "b", "kind": "carrier-pigeon"}', "kind"),
        ("[1, 2]", "expected an object"),
        ("{bad json", "invalid JSON"),
        pytest.param("[" * 100_000 + "]" * 100_000, "invalid JSON", id="deep-nesting"),
        pytest.param('{"id": ' + "1" * 5000 + "}", "invalid JSON", id="int-digit-limit"),
        pytest.param('{"id": "m", "uri": "u", "author": "a", "timestamp": "9999-12-31T23:59:59-01:00", "summary": "s", "body": "b"}', "timestamp", id="timestamp-overflow"),
        pytest.param('{"id": "m", "uri": "u", "author": "a", "timestamp": "2021-05-01T10:00:00Z", "summary": "s", "body": "x\\ud800"}', "artifact.body holds an unpaired surrogate", id="lone-surrogate-body"),
        pytest.param('{"id": "m", "uri": "u", "author": "a", "timestamp": "2021-05-01T10:00:00Z", "summary": "s", "body": "b", "trailers": {"Link": ["\\uDFFF"]}}', r"artifact.trailers.Link\[0\] holds an unpaired surrogate", id="lone-surrogate-trailer"),
    ],
)
def test_parse_jsonl_schema_errors_carry_line_numbers(mutation, match):
    with pytest.raises(CorpusError, match=f"line 1.*{match}"):
        parse_jsonl(mutation)


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


def test_segment_two_plain_sentences():
    sentences = segment_sentences(make_artifact("s: fix", "A b. C d."))
    assert [s.text for s in sentences[1:]] == ["A b.", "C d."]


def test_segment_does_not_split_at_function_call():
    text = "Raise it so that it can exit() soon, freeing memory."
    sentences = segment_sentences(make_artifact("s: fix", text))
    assert [s.text for s in sentences[1:]] == [text]


def test_segment_summary_is_its_own_sentence():
    sentences = segment_sentences(
        make_artifact("oom: give the dying task a higher priority", "")
    )
    assert len(sentences) == 1
    assert sentences[0].index == 0
    assert sentences[0].text == "oom: give the dying task a higher priority"


def test_segment_abbreviations_do_not_split():
    sentences = segment_sentences(
        make_artifact("s: fix", "Use locking primitives, e.g. Mutexes are fine.")
    )
    assert len(sentences) == 2  # summary + one body sentence


def test_segment_never_splits_inside_parentheses():
    sentences = segment_sentences(
        make_artifact("s: fix", "Call this (carefully. Really carefully) every time.")
    )
    assert len(sentences) == 2


def test_segment_paragraph_break_always_ends_sentence():
    sentences = segment_sentences(make_artifact("s: fix", "no capital after this\n\nnext paragraph"))
    assert [s.text for s in sentences[1:]] == ["no capital after this", "next paragraph"]


def test_segment_no_split_before_lowercase():
    sentences = segment_sentences(make_artifact("s: fix", "See mm/oom_kill.c for details."))
    assert len(sentences) == 2


def test_segment_stop_class_is_a_to_z_or_any_non_ascii():
    r"""The class after a terminator run's whitespace names the ASCII it
    excludes; it matches the code points of ``[A-Z\u0080-\U0010ffff]``,
    a class that takes over ten times as long to compile."""
    excluding_ascii = r"[^\x00-@\[-\x7f]"
    assert excluding_ascii in _SEGMENT_STOP_RE.pattern
    # Each code point occurs once, so equal remainders mean equal matches.
    every = "".join(map(chr, range(0x110000)))
    kept = re.sub(excluding_ascii, "", every)
    assert kept == re.sub(r"[A-Z\u0080-\U0010ffff]", "", every)
    assert kept == "".join(c for c in map(chr, range(128)) if not "A" <= c <= "Z")


def test_segment_empty_artifact():
    assert segment_sentences(make_artifact("", "")) == []


def test_segment_offsets_reproduce_text():
    artifact = make_artifact(
        "mm: do the thing",
        "First sentence here. Second one!\n\nThird paragraph? Yes.",
    )
    text = normalized_text(artifact)
    sentences = segment_sentences(artifact)
    previous_end = -1
    for sentence in sentences:
        assert sentence.start < sentence.end
        assert text[sentence.start : sentence.end] == sentence.text
        assert sentence.start > previous_end or previous_end == -1
        previous_end = sentence.end
    assert [s.index for s in sentences] == list(range(len(sentences)))


@given(
    summary=st.text(alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)), max_size=40),
    body=st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200),
)
@settings(max_examples=200)
def test_segment_offset_fidelity_property(summary, body):
    artifact = make_artifact(summary.strip(), body)
    text = normalized_text(artifact)
    sentences = segment_sentences(artifact)
    previous_end = -1
    for sentence in sentences:
        assert 0 <= sentence.start < sentence.end <= len(text)
        assert text[sentence.start : sentence.end] == sentence.text
        assert sentence.start >= previous_end
        previous_end = sentence.end
    assert sentences == segment_sentences(artifact)


_ARTIFACTS = st.builds(
    Artifact,
    id=st.uuids().map(str),
    uri=st.text(min_size=1, max_size=20),
    author=st.text(max_size=20),
    timestamp=st.datetimes(
        min_value=datetime(2000, 1, 1), max_value=datetime(2030, 1, 1)
    ).map(lambda d: d.replace(tzinfo=timezone.utc)),
    summary=st.text(alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)), max_size=40).map(str.strip),
    body=st.text(max_size=120).map(lambda t: t.replace("\r", "")),
    trailers=st.dictionaries(
        st.sampled_from(["Acked-by", "Link"]),
        st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=2).map(tuple),
        max_size=2,
    ),
    kind=st.sampled_from(["commit", "mail", "other"]),
)


@given(st.lists(_ARTIFACTS, max_size=5, unique_by=lambda a: a.id))
@settings(max_examples=100)
def test_artifact_file_round_trip_property(artifacts):
    normalized = parse_jsonl(dumps_artifacts(artifacts))
    assert parse_jsonl(dumps_artifacts(normalized)) == normalized


def test_segment_abbreviation_may_sit_before_a_line_break():
    # The word before a dot may end a soft-wrapped line, as "e.g" does here.
    assert len(segment_sentences(make_artifact("", "Use e.g\n. Then more."))) == 1
    assert len(segment_sentences(make_artifact("", "Use foo\n. Then more."))) == 2


# Test-side copy of the quadratic segmenter the package shipped before its
# abbreviation check became a bounded backward scan.
_REFERENCE_WORD_BEFORE_DOT_RE = re.compile(r"[A-Za-z][A-Za-z.]*$")


def _reference_is_abbreviation(text, dot, abbreviations):
    match = _REFERENCE_WORD_BEFORE_DOT_RE.search(text[:dot])
    if not match:
        return False
    word = match.group(0).lower().rstrip(".")
    return word in abbreviations or word.lstrip(".") in abbreviations


def _reference_segment_block(text, base, abbreviations):
    spans = []
    start = 0
    depth = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch in ".!?" and depth == 0:
            j = i
            while j + 1 < len(text) and text[j + 1] in ".!?":
                j += 1
            after = j + 1
            if after >= len(text):
                i = after
                continue
            if text[after] == ")":
                i = after
                continue
            if ch == "." and _reference_is_abbreviation(text, i, abbreviations):
                i = after
                continue
            k = after
            while k < len(text) and text[k].isspace():
                k += 1
            if k > after and k < len(text) and text[k].isupper():
                spans.append((start, after))
                start = k
                i = k
                continue
            i = after
            continue
        i += 1
    if start < len(text):
        spans.append((start, len(text)))
    out = []
    for s, e in spans:
        chunk = text[s:e]
        lead = len(chunk) - len(chunk.lstrip())
        trail = len(chunk) - len(chunk.rstrip())
        if s + lead < e - trail:
            out.append((base + s + lead, base + e - trail))
    return out


def _reference_bounds(artifact, abbreviations):
    bounds = []
    if artifact.summary:
        bounds.append((0, len(artifact.summary)))
        body_base = len(artifact.summary) + 2 if artifact.body else len(artifact.summary)
    else:
        body_base = 0
    if artifact.body:
        pos = 0
        for sep in re.finditer(r"\n[ \t]*\n", artifact.body):
            bounds.extend(
                _reference_segment_block(artifact.body[pos : sep.start()], body_base + pos, abbreviations)
            )
            pos = sep.end()
        bounds.extend(
            _reference_segment_block(artifact.body[pos:], body_base + pos, abbreviations)
        )
    return bounds


# Pieces that exercise every branch of the segmenter, including non-ASCII
# letters whose lower case holds an ASCII letter ("\u0130", the Kelvin sign),
# non-ASCII and control whitespace, and a titlecase letter that is not upper.
SEGMENT_PIECES = list(
    "\n.!?(),;' \taAbBeEgGiIsSvVxX\u0130\u212a\u00a0\u3000\x1c\u01c5"
) + [
    "e.g", "i.e", "vs", "cf", "e.g.", "i.e.", "vs.", "cf.", "\n\n", ". A", ". a",
]
segment_texts = st.lists(st.sampled_from(SEGMENT_PIECES), max_size=40).map("".join)
abbreviation_sets = st.one_of(
    st.just(frozenset({"e.g", "i.e", "vs", "cf"})),
    st.frozensets(
        st.text(alphabet="abegsvx.\u0130", max_size=4).map(str.lower), max_size=4
    ),
)


@given(summary=segment_texts, body=segment_texts, abbreviations=abbreviation_sets)
# The whitespace after the dot ends in a character that may be uppercase, but
# it is whitespace too, so no letter follows the dot and no split happens.
@example(summary="", body="A b. \u00a0", abbreviations=frozenset())
# A split may follow a run of terminators and a run of mixed whitespace.
@example(summary="", body="A b?!. \t\u3000C d.", abbreviations=frozenset())
@settings(max_examples=500)
def test_segmentation_equals_the_reference_segmenter(summary, body, abbreviations):
    artifact = make_artifact(summary.replace("\n", " ").strip(), body)
    sentences = segment_sentences(artifact, abbreviations)
    assert [(s.start, s.end) for s in sentences] == _reference_bounds(artifact, abbreviations)

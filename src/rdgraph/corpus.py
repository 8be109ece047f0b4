"""Ingest commit dumps or artifact files and segment their text into sentences.

Two input formats are supported:

* a git dump produced by
  ``git log --pretty=format:'%H%x1f%an <%ae>%x1f%aI%x1f%s%x1f%b%x1e'``
  (fields separated by 0x1f, records terminated by 0x1e), and
* an artifact file: UTF-8 JSON lines with fields
  ``id, uri, author, timestamp, summary, body, trailers, kind``.

Bodies are normalized on ingest: CRLF collapsed, quoted reply lines
(``>`` prefix) dropped, trailing whitespace stripped.  Offsets elsewhere in
the package always refer to :func:`normalized_text`.
"""

from __future__ import annotations

import json
import re
from datetime import datetime, timezone
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .config import default_config

# The abbreviations a build uses unless its config says otherwise.
DEFAULT_ABBREVIATIONS = default_config().abbreviations

RECORD_SEP = "\x1e"
FIELD_SEP = "\x1f"

ARTIFACT_KINDS = ("commit", "mail", "other")

_TRAILER_RE = re.compile(r"^[A-Z][A-Za-z-]*: .+$")
_WORD_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz.")
# Where segmentation has to look: each parenthesis, and each run of sentence
# terminators that whitespace and then a character that may be uppercase
# follow (A-Z or any non-ASCII character, a superset of str.isupper, written as
# the rest of ASCII excluded: a range up to U+10FFFF compiles 10x slower).
# Group 1 is that whitespace.  A run is matched only from its first terminator,
# so a long run that ends nowhere costs one attempt, not one per terminator.
_SEGMENT_STOP_RE = re.compile(
    r"[().!?](?:(?<=[()])|(?<![.!?].)[.!?]*(?=(\s+)[^\x00-@\[-\x7f]))"
)
_SURROGATE_RE = re.compile("[\ud800-\udfff]")

_JSONL_REQUIRED = ("id", "uri", "author", "timestamp", "summary", "body")
_JSONL_OPTIONAL = ("trailers", "kind")


class CorpusError(ValueError):
    """Raised when an input dump or artifact file cannot be parsed."""


class Artifact(NamedTuple):
    """One ingested text unit (commit, mail, ...) with normalized body."""

    id: str
    uri: str
    author: str
    timestamp: datetime
    summary: str
    body: str
    trailers: Mapping[str, tuple[str, ...]] = MappingProxyType({})
    kind: str = "other"


class Sentence(NamedTuple):
    """A sentence of an artifact, with offsets into its normalized text."""

    artifact_id: str
    index: int
    start: int
    end: int
    text: str


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp and canonicalize it to UTC."""
    text = value.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        # A stamp near year 1 or 9999 can leave the datetime range in UTC.
        return stamp.astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise CorpusError(f"unparseable timestamp {value!r}") from exc


def format_timestamp(stamp: datetime) -> str:
    return stamp.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def normalize_body(text: str) -> str:
    """Canonical body text: LF newlines, no quoted replies, no trailing blanks."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    kept = [line.rstrip() for line in lines if not line.lstrip().startswith(">")]
    while kept and not kept[-1]:
        kept.pop()
    while kept and not kept[0]:
        kept.pop(0)
    return "\n".join(kept)


def _split_trailers(body: str) -> tuple[str, dict[str, tuple[str, ...]]]:
    """Strip the final trailer block (git style) off a normalized body."""
    lines = body.split("\n")
    block_start = len(lines)
    while block_start > 0 and _TRAILER_RE.match(lines[block_start - 1]):
        block_start -= 1
    if block_start == len(lines):
        return body, {}
    # Only a block that forms the whole body or follows a blank line counts;
    # trailer-looking lines in running prose stay in the body.
    if block_start > 0 and lines[block_start - 1].strip():
        return body, {}
    trailers: dict[str, list[str]] = {}
    for line in lines[block_start:]:
        key, value = line.split(": ", 1)
        trailers.setdefault(key, []).append(value)
    remainder = "\n".join(lines[:block_start]).rstrip()
    return remainder, {k: tuple(v) for k, v in trailers.items()}


def parse_git_log(raw: str) -> list[Artifact]:
    """Parse a 0x1e/0x1f-delimited git dump into artifacts.

    Field order is hash, author, ISO date, summary, body.  Trailer lines are
    moved out of the body into :attr:`Artifact.trailers`.
    """
    artifacts: list[Artifact] = []
    seen: set[str] = set()
    ordinal = 0
    for record in raw.split(RECORD_SEP):
        if not record.strip():
            continue
        ordinal += 1
        fields = record.lstrip("\n").split(FIELD_SEP)
        if len(fields) != 5:
            raise CorpusError(
                f"record {ordinal}: expected 5 fields, got {len(fields)}"
            )
        commit_hash, author, date, summary, body = fields
        commit_hash = commit_hash.strip()
        if not commit_hash:
            raise CorpusError(f"record {ordinal}: empty hash")
        if commit_hash in seen:
            raise CorpusError(f"record {ordinal}: duplicate id {commit_hash!r}")
        seen.add(commit_hash)
        try:
            stamp = parse_timestamp(date)
        except CorpusError as exc:
            raise CorpusError(f"record {ordinal}: {exc}") from exc
        summary = summary.strip()
        if "\n" in summary:
            raise CorpusError(f"record {ordinal}: summary contains a line break")
        clean_body, trailers = _split_trailers(normalize_body(body))
        artifacts.append(
            Artifact(
                id=commit_hash,
                uri=f"git:{commit_hash}",
                author=author.strip(),
                timestamp=stamp,
                summary=summary,
                body=clean_body,
                trailers=trailers,
                kind="commit",
            )
        )
    return artifacts


def _artifact_from_json(obj: dict, line_no: int) -> Artifact:
    for key in _JSONL_REQUIRED:
        if key not in obj:
            raise CorpusError(f"line {line_no}: missing field {key!r}")
        if not isinstance(obj[key], str):
            raise CorpusError(f"line {line_no}: field {key!r} must be a string")
    unknown = set(obj) - set(_JSONL_REQUIRED) - set(_JSONL_OPTIONAL)
    if unknown:
        raise CorpusError(f"line {line_no}: unknown fields {sorted(unknown)}")
    if not obj["id"]:
        raise CorpusError(f"line {line_no}: empty id")
    if not obj["uri"]:
        raise CorpusError(f"line {line_no}: empty uri")
    if "\n" in obj["summary"]:
        raise CorpusError(f"line {line_no}: summary contains a line break")
    kind = obj.get("kind", "other")
    if kind not in ARTIFACT_KINDS:
        raise CorpusError(f"line {line_no}: unknown kind {kind!r}")
    raw_trailers = obj.get("trailers", {})
    if not isinstance(raw_trailers, dict):
        raise CorpusError(f"line {line_no}: trailers must be an object")
    trailers: dict[str, tuple[str, ...]] = {}
    for key, values in raw_trailers.items():
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise CorpusError(f"line {line_no}: trailers[{key!r}] must be a string list")
        trailers[key] = tuple(values)
    try:
        stamp = parse_timestamp(obj["timestamp"])
    except CorpusError as exc:
        raise CorpusError(f"line {line_no}: {exc}") from exc
    return Artifact(
        id=obj["id"],
        uri=obj["uri"],
        author=obj["author"],
        timestamp=stamp,
        summary=obj["summary"].strip(),
        body=normalize_body(obj["body"]),
        trailers=trailers,
        kind=kind,
    )


def _surrogate_path(value: object, path: str) -> str | None:
    if isinstance(value, str):
        return path if _SURROGATE_RE.search(value) else None
    if isinstance(value, dict):
        for key, item in value.items():
            if _SURROGATE_RE.search(key):
                return f"{path} key {key!r}"
            where = _surrogate_path(item, f"{path}.{key}")
            if where is not None:
                return where
    if isinstance(value, list):
        for n, item in enumerate(value):
            where = _surrogate_path(item, f"{path}[{n}]")
            if where is not None:
                return where
    return None


def lone_surrogate(raw: str, value: object, path: str) -> str | None:
    """Where ``value``, decoded from the JSON text ``raw``, holds a lone surrogate.

    A ``\\ud800``-``\\udfff`` escape without its pair decodes to a string that
    cannot be written as UTF-8.  Returns the path of the first such string,
    or None.  Only a ``\\ud`` escape can make one, so ``value`` is walked
    only when ``raw`` holds such an escape; in valid JSON every backslash
    starts an escape, and the scan visits each escape once.
    """
    escape = raw.find("\\")
    while escape >= 0:
        if raw.startswith(("\\ud", "\\uD"), escape):
            return _surrogate_path(value, path)
        escape = raw.find("\\", escape + 2)
    return None


def parse_jsonl(raw: str) -> list[Artifact]:
    """Parse an artifact file (one JSON object per line, blank lines skipped)."""
    artifacts: list[Artifact] = []
    seen: set[str] = set()
    for line_no, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise CorpusError(f"line {line_no}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise CorpusError(f"line {line_no}: expected an object")
        where = lone_surrogate(line, obj, "artifact")
        if where is not None:
            raise CorpusError(
                f"line {line_no}: {where} holds an unpaired surrogate escape"
            )
        artifact = _artifact_from_json(obj, line_no)
        if artifact.id in seen:
            raise CorpusError(f"line {line_no}: duplicate id {artifact.id!r}")
        seen.add(artifact.id)
        artifacts.append(artifact)
    return artifacts


def artifact_to_dict(artifact: Artifact) -> dict:
    return {
        "id": artifact.id,
        "uri": artifact.uri,
        "author": artifact.author,
        "timestamp": format_timestamp(artifact.timestamp),
        "summary": artifact.summary,
        "body": artifact.body,
        "trailers": {k: list(v) for k, v in artifact.trailers.items()},
        "kind": artifact.kind,
    }


def dumps_artifacts(artifacts: list[Artifact]) -> str:
    """Serialize artifacts to the JSON-lines artifact format."""
    lines = [
        json.dumps(artifact_to_dict(a), sort_keys=True, ensure_ascii=False)
        for a in artifacts
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def normalized_text(artifact: Artifact) -> str:
    """The text all sentence and span offsets refer to."""
    if not artifact.body:
        return artifact.summary
    if not artifact.summary:
        return artifact.body
    return artifact.summary + "\n\n" + artifact.body


def _is_abbreviation(
    text: str, dot: int, abbreviations: frozenset[str], longest: int
) -> bool:
    """Whether the word before ``text[dot]`` is a known abbreviation.

    The word is what ``[A-Za-z][A-Za-z.]*$`` finds in ``text[:dot]`` (so a
    newline right before the dot is skipped, as ``$`` allows), lower-cased and
    without trailing dots.  The backward scan gives up once the word is longer
    than ``longest``, the length of the longest abbreviation, which keeps
    segmentation linear in the text length.
    """
    end = dot - 1 if dot and text[dot - 1] == "\n" else dot
    stem = end
    while stem and text[stem - 1] == ".":
        stem -= 1
    start = -1
    j = stem
    while j and text[j - 1] in _WORD_CHARS:
        j -= 1
        if text[j] != ".":
            if stem - j > longest:
                return False
            start = j
    return start >= 0 and text[start:stem].lower() in abbreviations


def _segment_block(
    text: str, base: int, abbreviations: frozenset[str], longest: int
) -> list[tuple[int, int]]:
    """Sentence boundaries inside one paragraph; offsets relative to base."""
    spans: list[tuple[int, int]] = []
    start = 0
    depth = 0
    for stop in _SEGMENT_STOP_RE.finditer(text):
        i = stop.start()
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0:
            # A split needs whitespace, then an uppercase letter; group 1 ends
            # at the possible capital the pattern found, so text[k] exists.
            k = stop.end(1)
            if text[k].isupper() and not (
                ch == "." and _is_abbreviation(text, i, abbreviations, longest)
            ):
                spans.append((start, stop.end()))
                start = k
    if start < len(text):
        spans.append((start, len(text)))
    out = []
    for s, e in spans:
        if text[s].isspace() or text[e - 1].isspace():  # strip's own test
            s, e = e - len(text[s:e].lstrip()), s + len(text[s:e].rstrip())
        if s < e:
            out.append((base + s, base + e))
    return out


def segment_sentences(
    artifact: Artifact, abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS
) -> list[Sentence]:
    """Deterministic rule-based sentence segmentation of an artifact.

    The summary is always its own sentence (index 0 when present); paragraph
    breaks always end a sentence; splits happen after ``. ! ?`` followed by
    whitespace and an uppercase letter, never inside parentheses, after a
    known abbreviation, or before a closing parenthesis.
    """
    text = normalized_text(artifact)
    if not text:
        return []
    longest = max(map(len, abbreviations), default=0)
    bounds: list[tuple[int, int]] = []
    if artifact.summary:
        bounds.append((0, len(artifact.summary)))
        body_base = len(artifact.summary) + 2 if artifact.body else len(text)
    else:
        body_base = 0
    if artifact.body:
        # Soft-wrapped lines belong to the same sentence stream; a blank line
        # always closes the current sentence.
        pos = 0
        blocks: list[tuple[int, int]] = []
        for sep in re.finditer(r"\n[ \t]*\n", artifact.body):
            blocks.append((pos, sep.start()))
            pos = sep.end()
        blocks.append((pos, len(artifact.body)))
        for block_start, block_end in blocks:
            bounds.extend(
                _segment_block(
                    artifact.body[block_start:block_end],
                    body_base + block_start,
                    abbreviations,
                    longest,
                )
            )
    return [
        Sentence(artifact.id, index, start, end, text[start:end])
        for index, (start, end) in enumerate(bounds)
    ]

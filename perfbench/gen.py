"""Seeded synthetic inputs for the rdgraph benchmark.

Every workload is a git dump in the documented 5-field format (fields
separated by 0x1f, records terminated by 0x1e, newest commit first, as
``git log`` prints it) plus a list of labelled proposals for ``rdgraph
check``.  One ``random.Random(seed)`` drives all choices, so the same seed
always gives the same bytes.

Planted facts the benchmark checks against the program's output:

* every planted revert has a summary starting ``Revert "<summary>"`` and,
  for each commit it reverts, a body line
  ``This reverts commit <hex12> ("<summary>").``; every reverted commit
  yields a decision (its summary, or for long bodies its decision
  sentence, opens with an action verb);
* every proposal carries a label: ``warn`` (a rewording of a reverted
  decision, which must produce a conflict warning), ``clean`` (built only
  from a held-out vocabulary, which must exit 0) or ``live`` (a rewording
  of a decision that was never reverted, with no fixed outcome).

The sizes below are chosen so that the work is the same for every seed:
the seed changes words, authors, dates and which commits are reverted,
never how many commits, decisions, reverts or proposals there are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

FIELD_SEP = "\x1f"
RECORD_SEP = "\x1e"

WARN = "warn"
CLEAN = "clean"
LIVE = "live"

SUBSYSTEMS = (
    "mm", "sched", "net", "block", "fs", "kvm", "irq", "cgroup", "rcu",
    "tty", "pci", "usb", "xfs", "ext4", "bpf", "drm",
)

# Shared by every topic; these words are what chains all topics into one
# large topic, as the subsystems of a real tree are chained.
FILLER = (
    "memory", "kernel", "path", "patch", "code", "case", "lock", "page",
    "task", "queue", "buffer", "thread", "state", "limit", "cache",
    "counter", "handler", "value", "flag", "device", "latency", "load",
    "request", "pressure", "workload",
)

# Action verbs from the default decision lexicon that are not contradiction
# keywords, so an ordinary summary yields a decision and nothing else.
VERBS = ("add", "introduce", "use", "make", "move", "replace", "switch",
         "enable", "implement", "rename", "give")

# Verbs for held-out proposals; no template below ever uses them.
NOVEL_VERBS = ("adopt", "pilot", "trial", "sketch", "draft")

FIRST_NAMES = ("Ada", "Boris", "Chen", "Dana", "Emil", "Farah", "Goran",
               "Hana", "Ivo", "Jun", "Kira", "Lars", "Mei", "Nils", "Olga",
               "Pavel")
LAST_NAMES = ("Abe", "Brandt", "Costa", "Dietz", "Engel", "Fischer", "Gomez",
              "Horvat", "Ito", "Jensen", "Kovac", "Lindqvist", "Moreau",
              "Novak", "Okafor", "Petrov")

_ONSETS = "bdfklmnprstvz"
_VOWELS = "aeiou"
# Words a pseudo-word must never be: they would change what the scorer,
# the rationale markers or the contradiction rules see.
_RESERVED = frozenset(
    SUBSYSTEMS + FILLER + VERBS + NOVEL_VERBS
    + ("remove", "disable", "revert", "no", "not", "never", "since", "due",
       "because", "so", "that", "such", "order", "way", "this", "by",
       "same", "some", "more", "most", "over", "under", "data", "time",
       "done", "made", "note", "sure", "vs", "cf", "eg", "ie")
)
_NEGATIVE_CUES = ("tbd", "todo")


@dataclass(frozen=True)
class Proposal:
    label: str
    text: str


@dataclass
class Workload:
    """The generated files of one workload and the facts planted in them."""

    dump: str
    proposals: list[Proposal]
    reverts: list[tuple[str, str]]


class _Words:
    """Distinct pseudo-words, none of them reserved."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def take(self, n: int) -> list[str]:
        out = []
        while len(out) < n:
            syllables = self.rng.choice((2, 2, 3))
            word = "".join(
                self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS)
                for _ in range(syllables)
            )
            if self.rng.random() < 0.5:
                word += self.rng.choice("klmnrst")
            if (
                word in self.used
                or word in _RESERVED
                or word.endswith("ing")
                # Negative decision cues match as substrings ("todos").
                or any(cue in word for cue in _NEGATIVE_CUES)
            ):
                continue
            self.used.add(word)
            out.append(word)
        return out


def _authors(rng: random.Random, n: int) -> list[str]:
    names = [(f, l) for f in FIRST_NAMES for l in LAST_NAMES]
    picked = rng.sample(names, n)
    return [f"{f} {l} <{f.lower()}.{l.lower()}@example.org>" for f, l in picked]


def _hex_id(rng: random.Random, seen: set[str]) -> str:
    while True:
        value = f"{rng.getrandbits(160):040x}"
        if value not in seen:
            seen.add(value)
            return value


def _timestamps(rng: random.Random, n: int, start: datetime) -> list[str]:
    zones = (timezone.utc, timezone(timedelta(hours=-7)),
             timezone(timedelta(hours=2)), timezone(timedelta(hours=9)))
    stamps = []
    now = start
    for _ in range(n):
        now += timedelta(hours=rng.randint(1, 48), minutes=rng.randint(0, 59))
        stamps.append(now.astimezone(rng.choice(zones)).isoformat())
    return stamps


def _record(commit_id: str, author: str, date: str, summary: str, body: str) -> str:
    return FIELD_SEP.join((commit_id, author, date, summary, body)) + RECORD_SEP


def _dump(records: list[str]) -> str:
    # git log prints the newest commit first, one record per line start.
    return "\n".join(reversed(records)) + "\n"


@dataclass
class _Commit:
    id: str
    summary: str
    topic: int
    words: tuple[str, ...]
    reverted: bool = False


def history(seed: int, commits: int = 150) -> Workload:
    """Short kernel-style commits over chained topics, with ~5% reverts.

    Each revert backs out three earlier commits of one topic, so the
    must-warn proposals reword 24 distinct decisions at the default size.

    Every sixth ordinary commit carries a second decision in its body, so
    the decision count depends only on ``commits``.
    """
    rng = random.Random(seed)
    words = _Words(rng)
    n_topics = 12
    # Each topic owns ten pseudo-words and borrows three from the next one.
    own = [words.take(10) for _ in range(n_topics)]
    vocab = [own[t] + own[(t + 1) % n_topics][:3] for t in range(n_topics)]
    held_out = words.take(40)
    authors = _authors(rng, 14)
    stamps = _timestamps(rng, commits, datetime(2015, 1, 5, tzinfo=timezone.utc))
    n_reverts = max(1, round(commits * 0.05))
    # Reverts sit at fixed evenly spaced positions in the second half, so
    # each has earlier commits to revert whatever the seed.
    revert_at = {
        commits // 2 + (i * (commits - commits // 2)) // n_reverts
        for i in range(n_reverts)
    }
    seen: set[str] = set()
    records: list[str] = []
    done: list[_Commit] = []
    reverts: list[tuple[str, str]] = []
    # Topics come in shuffled blocks of one commit each, so topic sizes (and
    # with them the similar-pair counts) hardly depend on the seed.
    topic_order: list[int] = []
    while len(topic_order) < commits:
        block = list(range(n_topics))
        rng.shuffle(block)
        topic_order.extend(block)
    ordinary = 0
    for position in range(commits):
        commit_id = _hex_id(rng, seen)
        author = rng.choice(authors)
        if position in revert_at:
            # A revert backs out a series of three commits of one topic.
            open_by_topic: dict[int, list[_Commit]] = {}
            for c in done:
                if c.words and not c.reverted:
                    open_by_topic.setdefault(c.topic, []).append(c)
            # Tiny corpora (the smoke test) may have fewer to offer.
            series = min(3, max(len(cs) for cs in open_by_topic.values()))
            topic = rng.choice(sorted(t for t, cs in open_by_topic.items() if len(cs) >= series))
            targets = rng.sample(open_by_topic[topic], series)
            targets.sort(key=done.index)
            lines = []
            for target in targets:
                target.reverted = True
                lines.append(f'This reverts commit {target.id[:12]} ("{target.summary}").')
                reverts.append((commit_id, target.id))
            w = vocab[topic]
            summary = f'Revert "{targets[0].summary}" and its follow-ups'
            body = (
                "\n".join(lines) + "\n\n"
                f"The {rng.choice(w)} {rng.choice(FILLER)} change regressed "
                f"{rng.choice(w)} {rng.choice(FILLER)} on {rng.choice(w)} machines, "
                f"because the {rng.choice(FILLER)} {rng.choice(w)} now stalls "
                f"under {rng.choice(FILLER)} {rng.choice(FILLER)}."
            )
            trailers = [f"Reported-by: {rng.choice(authors)}"]
            if rng.random() < 0.5:
                trailers.append(f"Acked-by: {rng.choice(authors)}")
            trailers.append(f"Signed-off-by: {author}")
            records.append(
                _record(commit_id, author, stamps[position], summary,
                        body + "\n\n" + "\n".join(trailers))
            )
            done.append(_Commit(commit_id, summary, topic, ()))
            continue
        topic = topic_order[ordinary]
        ordinary += 1
        w = vocab[topic]
        subsys = SUBSYSTEMS[topic]
        a, b, c, d, e = rng.sample(w, 5)
        f1, f2, f3, f4 = rng.sample(FILLER, 4)
        summary = f"{subsys}: {rng.choice(VERBS)} {a} {b} {f1}"
        sentences = [
            f"The {c} {f2} stalls when {d} holds the {f3} {a} for too long.",
            f"Track the {b} {f1} per {e} so that the {c} {f4} stays bounded "
            f"under {rng.choice(FILLER)} {rng.choice(FILLER)}.",
        ]
        if ordinary % 6 == 0:
            sentences.append(
                f"Make {d} {e} the default {f2}, as agreed to on the list."
            )
        body = " ".join(sentences)
        trailers = []
        earlier = [x for x in done[-30:] if x.topic == topic]
        if earlier and rng.random() < 0.3:
            ref = rng.choice(earlier)
            trailers.append(f'Fixes: {ref.id[:12]} ("{ref.summary}")')
        if rng.random() < 0.3:
            trailers.append(f"Acked-by: {rng.choice(authors)}")
        trailers.append(f"Signed-off-by: {author}")
        records.append(
            _record(commit_id, author, stamps[position], summary,
                    body + "\n\n" + "\n".join(trailers))
        )
        done.append(_Commit(commit_id, summary, topic, (a, b, c, d, e, f1)))
    proposals = _proposals(rng, done, held_out, _reword_commit)
    return Workload(_dump(records), proposals, reverts)


def _reword_commit(rng: random.Random, commit: _Commit) -> str:
    a, b, c, d, e, f1 = commit.words
    subsys = SUBSYSTEMS[commit.topic]
    return (
        f"{subsys}: {rng.choice(VERBS)} {b} {a} {f1} again so that the "
        f"{c} stays bounded per {e}"
    )


def _proposals(
    rng: random.Random, commits: list[_Commit], held_out: list[str], reword
) -> list[Proposal]:
    """Forty warn, forty live and forty clean proposals, interleaved.

    The interleaving is fixed, so every stretch of the closed loop checks
    the same mix whatever the seed, and 120 proposals leave twelve beyond
    the p90 of per-proposal latencies.
    """
    reverted = [c for c in commits if c.reverted]
    live = [c for c in commits if c.words and not c.reverted]
    out: list[Proposal] = []
    for i in range(40):
        out.append(Proposal(WARN, reword(rng, reverted[i % len(reverted)])))
        out.append(Proposal(LIVE, reword(rng, rng.choice(live))))
        h = rng.sample(held_out, 5)
        out.append(
            Proposal(
                CLEAN,
                f"{h[0]}: {rng.choice(NOVEL_VERBS)} {h[1]} {h[2]} so that "
                f"the {h[3]} {h[4]} can be tuned",
            )
        )
    return out


def longbody(seed: int, docs: int = 24, paragraph_sentences: int = 60) -> Workload:
    """Design-document-style commits with long, abbreviation-heavy bodies.

    Each body is one long paragraph of filler sentences with ``e.g.``,
    ``i.e.`` and ``vs.`` asides.  Every second document also carries one
    decision sentence (an action verb plus the cue phrase "as we decided
    to") followed by a long comma-laden rationale sentence; the others
    carry none, so only a few dozen decision pairs reach the similarity
    provider.  Two documents revert earlier decision-carrying ones.
    """
    rng = random.Random(seed)
    words = _Words(rng)
    vocab = words.take(60)
    chain = words.take(docs // 2 + 1)
    held_out = words.take(40)
    authors = _authors(rng, 8)
    stamps = _timestamps(rng, docs, datetime(2019, 3, 4, tzinfo=timezone.utc))
    revert_at = {docs - 1, docs - 3}
    seen: set[str] = set()
    records: list[str] = []
    done: list[_Commit] = []
    reverts: list[tuple[str, str]] = []
    for position in range(docs):
        commit_id = _hex_id(rng, seen)
        author = rng.choice(authors)
        a, b, c, d, e = rng.sample(vocab, 5)
        f1 = rng.choice(FILLER)
        words_used: tuple[str, ...] = ()
        if position in revert_at:
            target = rng.choice([x for x in done if x.words and not x.reverted])
            target.reverted = True
            summary = f'Revert "{target.summary}"'
            _, _, tc, td, te, _ = target.words
            # Restating the reverted design keeps the revert in its topic even
            # when bodies are short.
            lead = (
                f'This reverts commit {target.id[:12]} ("{target.summary}"). '
                f"The {tc} {td} {te} design regressed {rng.choice(FILLER)} workloads."
            )
            reverts.append((commit_id, target.id))
        else:
            summary = f"design: notes on the {a} {b} {f1}"
            lead = f"This document describes the {a} {b} {f1} design."
            if position % 2 == 0:
                # Consecutive decisions share one of their two main words, so
                # the similar edges form the same chain whatever the seed.
                c, d = chain[position // 2], chain[position // 2 + 1]
                words_used = (a, b, c, d, e, f1)
        sentences = [lead]
        decision_at = rng.randrange(paragraph_sentences // 3, paragraph_sentences // 2 + 1)
        for i in range(paragraph_sentences):
            if i == decision_at and words_used:
                sentences.append(
                    f"Replace the {c} {rng.choice(FILLER)} with {d} {e}, as we "
                    f"decided to in review."
                )
                sentences.append(_rationale(rng, c, d))
                continue
            sentences.append(_filler_sentence(rng, vocab))
        body = " ".join(sentences) + f"\n\nSigned-off-by: {author}"
        records.append(_record(commit_id, author, stamps[position], summary, body))
        done.append(_Commit(commit_id, summary, 0, words_used))
    proposals = _proposals(rng, done, held_out, _reword_design)
    return Workload(_dump(records), proposals, reverts)


def _filler_sentence(rng: random.Random, vocab: list[str]) -> str:
    w = rng.sample(vocab, 4)
    f = rng.sample(FILLER, 3)
    form = rng.randrange(3)
    if form == 0:
        return (
            f"Some {f[0]} paths, e.g. {w[0]} {f[1]}, i.e. {w[1]} {f[2]}, "
            f"see {w[2]} vs. {w[3]} spikes."
        )
    if form == 1:
        return (
            f"The {w[0]} {f[0]} keeps one {w[1]} per {f[1]}, i.e. the "
            f"{w[2]} {f[2]} is per {w[3]}, e.g. on {f[0]} hosts."
        )
    return f"Measured {f[0]} for {w[0]} vs. {w[1]} {f[1]} follows the {w[2]} {w[3]} trend."


def _rationale(rng: random.Random, c: str, d: str, items: int = 120) -> str:
    """A long comma list about the decision's two main words.

    No item opens with a subject word, so the clause (and the span) runs to
    the end of the sentence; the items reuse the decision's words, so the
    decision document stays close to rewordings of the decision.
    """
    listed = ", ".join(f"{rng.choice((c, d))} {rng.choice(FILLER)}" for _ in range(items))
    return f"This way the {c} {d} stays bounded for {listed}."


def _reword_design(rng: random.Random, commit: _Commit) -> str:
    _, _, c, d, e, _ = commit.words
    return (
        f"Replace the {c} {rng.choice(FILLER)} with {d} {e} so that the {c} {d} "
        f"stays bounded"
    )

"""Scorecard of the benchmark corpora against the facts ``perfbench/gen.py``
plants in them.

Each corpus is generated and built once per module, from its git dump with
the default config.  The planted truth comes from the generator's own
output: an ordinary commit's planted topic is its summary's subsystem prefix
(the text before the first colon), a revert takes the planted topic of the
first commit it reverts, and ``Workload.reverts`` lists every planted
``(revert, reverted)`` commit pair.  A decision belongs to its commit.

The pins say how correct the graph is, where ``tests/test_graph_bytes.py``
only says that its bytes did not move.  A change to extraction, relations
or clustering that moves a pin updates it and records the old and new
values.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import pytest

from helpers import perfbench_gen
from rdgraph import build_pipeline, default_config, parse_git_log
from rdgraph.relations import CONTRADICTS, KEYWORD, REVERT_METADATA, SIMILAR


def adjusted_rand_index(labels: list, truth: list) -> float:
    """Hubert and Arabie's adjusted Rand index of two labellings of the same
    items; 1.0 when both put every item in one cluster, as they then agree."""

    def pairs(n: int) -> int:
        return n * (n - 1) // 2

    index = sum(pairs(n) for n in Counter(zip(labels, truth)).values())
    rows = sum(pairs(n) for n in Counter(labels).values())
    columns = sum(pairs(n) for n in Counter(truth).values())
    expected = rows * columns / pairs(len(labels))
    top = (rows + columns) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def test_adjusted_rand_index_of_known_partitions():
    assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 7, 7]) == 1.0
    assert adjusted_rand_index([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0
    assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(4 / 7)


class Scorecard(NamedTuple):
    topics: int
    planted_topics: int
    ari: float  # rounded to three places
    similar_within: int  # similar edges inside one planted topic
    similar_across: int
    # Per evidence feature, contradicts edges (on, off) a planted revert pair.
    contradicts: dict[str, tuple[int, int]]
    pairs_found: int  # planted revert pairs with a contradicts edge
    pairs_planted: int
    # Decisions of never-reverted commits at the earlier end of a
    # contradicts edge, of all decisions.
    never_reverted_earlier: int
    decisions: int


CORPORA = {
    "history-101": ("history", {"seed": 101}),
    "history-501-400": ("history", {"seed": 501, "commits": 400}),
    "longbody-101": ("longbody", {"seed": 101}),
}

EXPECTED = {
    "history-101": Scorecard(
        topics=1, planted_topics=12, ari=0.0,
        similar_within=624, similar_across=403,
        contradicts={REVERT_METADATA: (28, 0), KEYWORD: (0, 4)},
        pairs_found=24, pairs_planted=24,
        never_reverted_earlier=3, decisions=173,
    ),
    "history-501-400": Scorecard(
        topics=1, planted_topics=12, ari=0.0,
        similar_within=4725, similar_across=2981,
        # The revert-metadata edge off a planted pair joins a revert to an
        # earlier commit whose summary is the same as that of a commit the
        # revert names by id.
        contradicts={REVERT_METADATA: (72, 1), KEYWORD: (0, 25)},
        pairs_found=60, pairs_planted=60,
        never_reverted_earlier=24, decisions=463,
    ),
    "longbody-101": Scorecard(
        topics=1, planted_topics=1, ari=1.0,
        similar_within=12, similar_across=0,
        contradicts={REVERT_METADATA: (2, 0)},
        pairs_found=2, pairs_planted=2,
        never_reverted_earlier=0, decisions=14,
    ),
}


def score(workload) -> Scorecard:
    artifacts = parse_git_log(workload.dump)
    graph = build_pipeline(artifacts, default_config())
    summaries = {a.id: a.summary for a in artifacts}
    first_target: dict[str, str] = {}
    for revert, target in workload.reverts:
        first_target.setdefault(revert, target)
    planted = {
        aid: summaries[first_target.get(aid, aid)].partition(":")[0] for aid in summaries
    }
    commit = {d.id: d.artifact_id for d in graph.decisions.values()}
    ids = sorted(graph.decisions)
    topic = {m: t.id for t in graph.topics.values() for m in t.member_decision_ids}
    ari = adjusted_rand_index(
        [topic[d] for d in ids], [planted[commit[d]] for d in ids]
    )

    similar = [e for e in graph.relation_edges if e.kind == SIMILAR]
    within = sum(planted[commit[e.from_id]] == planted[commit[e.to_id]] for e in similar)
    revert_pairs = set(workload.reverts)
    contradicts = [e for e in graph.relation_edges if e.kind == CONTRADICTS]
    on_pair = {e: (commit[e.from_id], commit[e.to_id]) in revert_pairs for e in contradicts}
    features: dict[str, list[int]] = {}
    for edge in contradicts:
        for evidence in edge.evidence:
            features.setdefault(evidence.feature, [0, 0])[not on_pair[edge]] += 1
    reverted = {target for _, target in workload.reverts}
    earlier_ends = {e.to_id for e in contradicts if commit[e.to_id] not in reverted}
    return Scorecard(
        topics=len(graph.topics),
        planted_topics=len({planted[commit[d]] for d in ids}),
        ari=round(ari, 3),
        similar_within=within,
        similar_across=len(similar) - within,
        contradicts={feature: tuple(counts) for feature, counts in features.items()},
        pairs_found=len(revert_pairs & {(commit[e.from_id], commit[e.to_id]) for e in contradicts}),
        pairs_planted=len(revert_pairs),
        never_reverted_earlier=len(earlier_ends),
        decisions=len(ids),
    )


@pytest.fixture(scope="module")
def scorecard():
    """``scorecard(corpus)``, scored once per module."""
    cache: dict[str, Scorecard] = {}

    def get(corpus: str) -> Scorecard:
        if corpus not in cache:
            name, kwargs = CORPORA[corpus]
            cache[corpus] = score(getattr(perfbench_gen(), name)(**kwargs))
        return cache[corpus]

    return get


@pytest.mark.parametrize("corpus", CORPORA)
def test_topics_against_the_planted_topics(scorecard, corpus):
    got, want = scorecard(corpus), EXPECTED[corpus]
    assert (got.topics, got.planted_topics, got.ari) == (
        want.topics, want.planted_topics, want.ari,
    )


@pytest.mark.parametrize("corpus", CORPORA)
def test_similar_edges_within_and_across_planted_topics(scorecard, corpus):
    got, want = scorecard(corpus), EXPECTED[corpus]
    assert (got.similar_within, got.similar_across) == (
        want.similar_within, want.similar_across,
    )


@pytest.mark.parametrize("corpus", CORPORA)
def test_contradicts_edges_on_and_off_planted_revert_pairs(scorecard, corpus):
    assert scorecard(corpus).contradicts == EXPECTED[corpus].contradicts


@pytest.mark.parametrize("corpus", CORPORA)
def test_planted_revert_pairs_found(scorecard, corpus):
    got, want = scorecard(corpus), EXPECTED[corpus]
    assert (got.pairs_found, got.pairs_planted) == (want.pairs_found, want.pairs_planted)


@pytest.mark.parametrize("corpus", CORPORA)
def test_never_reverted_decisions_at_an_earlier_end(scorecard, corpus):
    got, want = scorecard(corpus), EXPECTED[corpus]
    assert (got.never_reverted_earlier, got.decisions) == (
        want.never_reverted_earlier, want.decisions,
    )

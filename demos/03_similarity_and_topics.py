#!/usr/bin/env python3
"""Inspect the TF-IDF space: tokens, pairwise scores, topic clustering.

Run from the repository root:  python demos/03_similarity_and_topics.py
"""

import itertools
from pathlib import Path

from rdgraph import (
    cluster_topics,
    default_config,
    normalized_text,
    parse_git_log,
    title_topic,
)
from rdgraph.pipeline import build_pipeline
from rdgraph.textsim import TfIdfProvider, token_counts

config = default_config()
dump = Path("fixtures/oom/oom-commits.dump").read_text(encoding="utf-8")
artifacts = parse_git_log(dump)

text = "Give the dying task a higher priority"
print("token counts:", dict(token_counts(text, config.stopwords)))

# The model is corpus-wide: idf comes from every artifact's full text.
docs = [normalized_text(a) for a in artifacts]
provider = TfIdfProvider.fit(docs, config.stopwords)
model = provider.model
print(f"vocabulary size: {len(model.vocabulary)} over {model.doc_count} documents\n")

labels = [a.summary.split(":")[0] for a in artifacts]
print("pairwise full-text similarity (topic clustering compares these):")
for i, j in itertools.combinations(range(len(docs)), 2):
    score = provider.score(docs[i], docs[j])
    linked = "linked" if score >= config.thresholds.relatedness else ""
    print(f"  {labels[i]:9s} ~ {labels[j]:9s} {score:.3f} {linked}")

# Single-link clustering: one chain of links above the threshold is enough
# to pull every commit into the shared memory-reclamation topic.
graph = build_pipeline(artifacts, config)
decisions = list(graph.decisions.values())
contexts = {d.id: docs[[a.id for a in artifacts].index(d.artifact_id)] for d in decisions}
topics = cluster_topics(decisions, provider, config.thresholds.relatedness, contexts)
for topic in topics:
    title = title_topic(topic, model, {d.id: d.text for d in decisions})
    print(f"\ntopic {topic.id} ({title!r}):")
    for member in topic.member_decision_ids:
        print(f"  {graph.decisions[member].text}")

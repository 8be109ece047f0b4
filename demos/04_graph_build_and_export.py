#!/usr/bin/env python3
"""Build the full graph, query it, and round-trip it through disk formats.

Run from the repository root:  python demos/04_graph_build_and_export.py
"""

from pathlib import Path

from rdgraph import (
    build_pipeline,
    default_config,
    export_dot,
    k_hop,
    load,
    neighbors,
    parse_git_log,
    save,
)
from rdgraph.relations import CONTRADICTS, SIMILAR

config = default_config()
dump = Path("fixtures/oom/oom-commits.dump").read_text(encoding="utf-8")
artifacts = parse_git_log(dump)
graph = build_pipeline(artifacts, config)

print(f"decisions={len(graph.decisions)} rationales={len(graph.rationales)} "
      f"topics={len(graph.topics)} edges={len(graph.relation_edges)}\n")

for edge in graph.relation_edges:
    frm = graph.decisions[edge.from_id].text.split(":")[0]
    to = graph.decisions[edge.to_id].text.split(":")[0]
    features = ",".join(ev.feature for ev in edge.evidence)
    print(f"  {frm:9s} -{edge.kind}-> {to:9s} score={edge.score:.2f} [{features}]")

d1 = next(d for d in graph.decisions.values() if d.text.startswith("oom:"))
print(f"\nneighbors of {d1.text!r}:")
for edge, peer in neighbors(graph, d1.id, {SIMILAR, CONTRADICTS}):
    print(f"  via {edge.kind}: {peer.text}")

hood = k_hop(graph, d1.id, 1)
print(f"\n1-hop neighborhood: {len(hood.decision_ids)} decisions, "
      f"{len(hood.rationale_ids)} rationale spans, topics {sorted(hood.topic_ids)}")

# The JSON document is canonical: equal graphs serialize to equal bytes.
text = save(graph)
assert load(text) == graph
print(f"\ngraph file: {len(text.encode())} bytes, round-trips exactly")

dot = export_dot(graph)
print(f"DOT export: {dot.count(chr(10))} lines; to write and render it:")
print("  rdgraph export GRAPH --dot -o rdgraph.dot && dot -Tsvg rdgraph.dot -o rdgraph.svg")

#!/usr/bin/env python3
"""The payoff: catch a proposal that repeats an approach reverted years ago.

A maintainer proposes the process_mrelease system call in 2021. The graph
built from the four older commits remembers that boosting dying tasks was
tried in 2010/2011 and reverted, so checking the proposal warns about the
collision instead of letting history repeat silently.

Run from the repository root:  python demos/05_validation_and_conflicts.py
"""

from pathlib import Path

from rdgraph import (
    build_pipeline,
    check_new_decision,
    check_rationale_consistency,
    default_config,
    parse_git_log,
)

config = default_config()
dump = Path("fixtures/oom/oom-commits.dump").read_text(encoding="utf-8")
artifacts = parse_git_log(dump)

# The world as of 2016: four commits, the third reverting the first two.
# build_pipeline refuses a graph that breaks any structural invariant.
graph = build_pipeline(artifacts[:4], config)

consistency = check_rationale_consistency(graph, config)
print("rationale consistency across similar decisions:")
for finding in consistency:
    print(f"  {finding.severity}: {finding.message}")

# 2021: the new proposal arrives as plain text.
proposal = Path("fixtures/oom/proposed-mrelease.txt").read_text(encoding="utf-8")
print("\nincoming proposal:")
print("  " + proposal.strip().split("\n")[0])

warnings = check_new_decision(graph, proposal, config)
print("\nconflict check:")
for finding in warnings:
    print(f"  {finding.severity} ({finding.kind}):")
    print(f"    {finding.message}")
    for edge in finding.path:
        print(f"    path edge: {edge.from_id[:12]} -{edge.kind}-> {edge.to_id[:12]}")

print("\nsame check via the command line:")
print("  rdgraph build fixtures/oom/artifacts-d1-d4.jsonl -o old-graph.json")
print("  rdgraph check old-graph.json --file fixtures/oom/proposed-mrelease.txt")
print("(exits 1 because a conflict warning fired)")

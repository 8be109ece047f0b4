#!/usr/bin/env python3
"""Watch the decision scorer and the rationale markers at work.

Run from the repository root:  python demos/02_decisions_and_rationale.py
"""

from pathlib import Path

from rdgraph import default_config, extract_decisions, parse_git_log, segment_sentences
from rdgraph.rationale import attach_rationale

config = default_config()
dump = Path("fixtures/oom/oom-commits.dump").read_text(encoding="utf-8")

for artifact in parse_git_log(dump):
    sentences = segment_sentences(artifact, config.abbreviations)
    print(artifact.summary)
    # At threshold 0 every sentence is kept, so each one shows its score.
    for scored in extract_decisions(artifact, sentences, config, 0.0):
        tag = "decision" if scored.score >= config.thresholds.decision else "        "
        preview = scored.text.replace("\n", " ")[:64]
        print(f"  {scored.score:.2f} {tag} {preview}")

    decisions = extract_decisions(artifact, sentences, config, config.thresholds.decision)
    for decision in decisions:
        # The decision's own sentence is searched first; without a marker
        # there, up to `window` neighboring sentences are scanned.
        for span in attach_rationale(decision, sentences, config.window, config.markers):
            where = "same sentence" if span.same_sentence else "nearby sentence"
            print(f"       -> {span.role} ({where}, marker {span.marker!r}):")
            print(f"          {span.text!r}")
    print()

print("note: the third commit records no extractable rationale, and that is")
print("expected; its reasoning lives in sentences no marker pattern covers.")

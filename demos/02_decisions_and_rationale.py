#!/usr/bin/env python3
"""Watch the decision scorer and the rationale markers at work.

Run from the repository root:  python demos/02_decisions_and_rationale.py
"""

from pathlib import Path

from rdgraph import default_config, extract_decisions, parse_git_log, segment_sentences
from rdgraph.rationale import attach_rationale, rationale_window

config = default_config()
# At decision threshold 0 every sentence is kept, so each one shows its score.
every_sentence = config._replace(thresholds=config.thresholds._replace(decision=0.0))
dump = Path("fixtures/oom/oom-commits.dump").read_text(encoding="utf-8")

for artifact in parse_git_log(dump):
    sentences = segment_sentences(artifact, config.abbreviations)
    print(artifact.summary)
    for scored in extract_decisions(artifact, sentences, every_sentence):
        tag = "decision" if scored.score >= config.thresholds.decision else "        "
        preview = scored.text.replace("\n", " ")[:64]
        print(f"  {scored.score:.2f} {tag} {preview}")

    for decision in extract_decisions(artifact, sentences, config):
        # The decision's own sentence is searched first; without a marker
        # there, the sentences up to `window` away are scanned, nearest first.
        near = rationale_window(sentences, decision.id, config.window)
        for span in attach_rationale(decision, near, config.markers):
            where = "same sentence" if span.same_sentence else "nearby sentence"
            print(f"       -> {span.role} ({where}, marker {span.marker!r}):")
            print(f"          {span.text!r}")
    print()

print("note: the third commit records no extractable rationale, and that is")
print("expected; its reasoning lives in sentences no marker pattern covers.")

"""Command-line front end wiring the pipeline end to end.

Exit codes are a stable contract: 0 clean, 1 findings (conflict gate),
2 usage or input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from functools import cache

from .config import ConfigError, load_config
from .corpus import CorpusError, dumps_artifacts, parse_git_log, parse_jsonl
from .graph import GraphError, export_dot, k_hop, load, save
from .pipeline import build_pipeline
from .validate import (
    CONFLICT_WARNING,
    check_new_decision,
    check_rationale_consistency,
    findings_to_jsonl,
    render_findings,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path} is not valid UTF-8: {exc}") from exc


def _hop_count(value: str) -> int:
    try:
        hops = int(value)
    except ValueError:
        hops = -1
    if hops < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value!r}")
    return hops


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CorpusError(f"cannot write {path}: {exc}") from exc


def cmd_ingest(args: argparse.Namespace) -> int:
    raw = _read(args.input)
    if args.format == "git":
        artifacts = parse_git_log(raw)
    else:
        artifacts = parse_jsonl(raw)
    _write(args.output, dumps_artifacts(artifacts))
    print(f"ingested {len(artifacts)} artifacts", file=sys.stderr)
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    artifacts = parse_jsonl(_read(args.artifacts))
    graph = build_pipeline(artifacts, config)
    _write(args.output, save(graph))
    kinds = Counter(edge.kind for edge in graph.relation_edges)
    print(
        f"decisions={len(graph.decisions)} rationales={len(graph.rationales)} "
        f"topics={len(graph.topics)} similar={kinds['similar']} "
        f"history={kinds['history']} contradicts={kinds['contradicts']}",
        file=sys.stderr if args.output is None else sys.stdout,  # keep stdout a graph
    )
    return EXIT_OK


def _emit_findings(findings, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(findings_to_jsonl(findings))
    else:
        sys.stdout.write(render_findings(findings))


def cmd_check(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    graph = load(_read(args.graph))
    candidate = args.text if args.text is not None else _read(args.file)
    if not candidate.strip():
        raise CorpusError("candidate text is empty")
    findings = check_new_decision(graph, candidate, config)
    _emit_findings(findings, args.json)
    if any(f.kind == CONFLICT_WARNING for f in findings):
        return EXIT_FINDINGS
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    # load() already rejects a graph that breaks a structural invariant.
    graph = load(_read(args.graph))
    findings = check_rationale_consistency(graph, config)
    _emit_findings(findings, args.json)
    if any(f.severity != "info" for f in findings):
        return EXIT_FINDINGS
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    graph = load(_read(args.graph))
    _write(args.output, export_dot(graph))
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    graph = load(_read(args.graph))
    if args.topic is not None:
        topic = graph.topics.get(args.topic)
        if topic is None:
            raise GraphError(f"unknown topic id {args.topic!r}")
        print(f"topic {topic.id}: {topic.title}")
        for member in topic.member_decision_ids:
            decision = graph.decisions[member]
            print(f"  {decision.id}  {decision.timestamp.date()}  {decision.text}")
        return EXIT_OK
    subgraph = k_hop(graph, args.decision, args.hops)
    decision = graph.decisions[args.decision]
    print(f"decision {decision.id}: {decision.text}")
    for rid in sorted(subgraph.rationale_ids):
        span = graph.rationales[rid]
        print(f"  rationale [{span.role}] {span.text}")
    for topic_id in sorted(subgraph.topic_ids):
        print(f"  topic {topic_id}: {graph.topics[topic_id].title}")
    for edge in subgraph.edges:
        print(f"  {edge.from_id} -{edge.kind}-> {edge.to_id} ({edge.score:.2f})")
    for other in sorted(subgraph.decision_ids - {args.decision}):
        print(f"  reaches {other}: {graph.decisions[other].text}")
    return EXIT_OK


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; it holds no command function."""
    parser = argparse.ArgumentParser(
        prog="rdgraph",
        description=(
            "Reconstruct design decisions and their rationale from commit "
            "history into a typed graph, and check it for conflicts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="normalize a dump into an artifact file")
    p_ingest.add_argument("input")
    p_ingest.add_argument("--format", choices=("git", "jsonl"), required=True)
    p_ingest.add_argument("-o", "--output", default=None)

    p_build = sub.add_parser("build", help="build the decision graph")
    p_build.add_argument("artifacts", help="artifact file (JSON lines)")
    p_build.add_argument("-o", "--output", default=None)
    p_build.add_argument("--config", default=None)

    p_check = sub.add_parser("check", help="check a proposed decision for conflicts")
    p_check.add_argument("graph")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", default=None)
    group.add_argument("--file", default=None)
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--config", default=None)

    p_validate = sub.add_parser("validate", help="check graph consistency")
    p_validate.add_argument("graph")
    p_validate.add_argument("--json", action="store_true")
    p_validate.add_argument("--config", default=None)

    p_export = sub.add_parser("export", help="export the graph")
    p_export.add_argument("graph")
    p_export.add_argument("--dot", action="store_true", required=True)
    p_export.add_argument("-o", "--output", default=None)

    p_query = sub.add_parser("query", help="list a topic or a decision's surroundings")
    p_query.add_argument("graph")
    group = p_query.add_mutually_exclusive_group(required=True)
    group.add_argument("--topic", default=None)
    group.add_argument("--decision", default=None)
    p_query.add_argument("--hops", type=_hop_count, default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        # Looked up per call, so a rebound ``cmd_<name>`` is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except (CorpusError, ConfigError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # internal invariant breach
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

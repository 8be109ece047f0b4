"""rdgraph: decision and rationale reconstruction from commit history.

Parses commit dumps into artifacts, extracts decision sentences and their
rationale spans, links decisions by topic/similar/history/contradicts, and
validates the resulting graph for inconsistent reasoning and conflicts with
newly proposed decisions.
"""

from .config import Config, ConfigError, default_config, load_config
from .corpus import (
    Artifact,
    CorpusError,
    Sentence,
    dumps_artifacts,
    normalized_text,
    parse_git_log,
    parse_jsonl,
    segment_sentences,
)
from .decisions import Decision, extract_decisions
from .graph import (
    GraphError,
    RdGraph,
    SourceRef,
    Subgraph,
    build_graph,
    export_dot,
    k_hop,
    load,
    neighbors,
    save,
)
from .pipeline import build_pipeline
from .rationale import RationaleSpan, attach_rationale, extract_rationale
from .relations import (
    Evidence,
    RelationEdge,
    Topic,
    cluster_topics,
    detect_similar,
    pair_edges,
    title_topic,
)
from .textsim import TfIdfModel, TfIdfProvider, tokenize
from .validate import (
    ValidationFinding,
    check_new_decision,
    check_rationale_consistency,
)

__version__ = "0.1.0"

__all__ = [
    "Artifact",
    "Config",
    "ConfigError",
    "CorpusError",
    "Decision",
    "Evidence",
    "GraphError",
    "RationaleSpan",
    "RdGraph",
    "RelationEdge",
    "Sentence",
    "SourceRef",
    "Subgraph",
    "TfIdfModel",
    "TfIdfProvider",
    "Topic",
    "ValidationFinding",
    "attach_rationale",
    "build_graph",
    "build_pipeline",
    "check_new_decision",
    "check_rationale_consistency",
    "cluster_topics",
    "default_config",
    "detect_similar",
    "dumps_artifacts",
    "export_dot",
    "extract_decisions",
    "extract_rationale",
    "k_hop",
    "load",
    "load_config",
    "neighbors",
    "normalized_text",
    "pair_edges",
    "parse_git_log",
    "parse_jsonl",
    "save",
    "segment_sentences",
    "title_topic",
    "tokenize",
]

#!/usr/bin/env python3
"""Seeded single-process benchmark of the rdgraph command line.

Run from the repository root:

    python3 perfbench/run.py --workload build-history --seed 1 --seconds 50 --trace 0

It generates the workload's git dump and proposals from ``--seed``, then
drives ``rdgraph.cli.main`` in-process (``ingest`` during set-up, then
``build``, ``validate`` and ``check --json`` in a closed loop for
``--seconds``), checks every output against the planted facts, and prints
one JSON object as its last line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` repeats the work with the module boundaries wrapped
in spans and reports the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gen
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures" / "oom"
OUT = HERE / "out"

FIXTURE_SUMMARY = "decisions=5 rationales=3 topics=1 similar=1 history=2 contradicts=2"
_SUMMARY_RE = re.compile(
    r"^decisions=(\d+) rationales=(\d+) topics=(\d+) similar=(\d+) "
    r"history=(\d+) contradicts=(\d+)$"
)

# Every proposal is checked at least this often, spread over the run; its
# latency is the median of these repeats (see README.md, "Noise").
MIN_REPEATS = 3


@dataclass(frozen=True)
class Spec:
    """One workload: how to generate it and how its closed loop runs.

    ``size`` is the generator argument the growth probe halves: the commit
    count for history corpora, the sentences per paragraph for long bodies.
    """

    make: object
    size_arg: str
    size: int
    checks_per_round: int
    why: str


# Each round is one build, VALIDATES_PER_ROUND validations and the
# workload's checks; cheap checks get more repeats per proposal.
WORKLOADS = {
    "build-history": Spec(
        gen.history, "commits", 150, 20,
        "all-pairs textsim/relations work (topic clustering, similar edges, "
        "history/contradicts over one large topic) and the check read path; "
        "segmentation negligible",
    ),
    "build-longbody": Spec(
        gen.longbody, "paragraph_sentences", 60, 100,
        "quadratic sentence segmentation and rationale extraction on long "
        "bodies; few decision pairs, the control for pair-scoring changes",
    ),
}
SETUPS = 5
VALIDATES_PER_ROUND = 2


class Failure(Exception):
    pass


@dataclass
class Run:
    """Counters and samples of one benchmark process."""

    workdir: Path
    speed: speed.Probe
    cli: object = None
    modules: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    # First output bytes per file written, to check later writes against.
    graph_refs: dict[Path, bytes] = field(default_factory=dict)
    validate_ref: str | None = None
    check_refs: dict[int, str] = field(default_factory=dict)
    # Seconds per operation kind, each with the index of the probe before it.
    times: dict[str, list[tuple[float, int]]] = field(default_factory=dict)

    def sample(self, key: str, seconds: float, probe: int) -> None:
        self.times.setdefault(key, []).append((seconds, probe))

    def normalised(self, samples: list[tuple[float, int]]) -> list[float]:
        return [self.speed.normalise(seconds, probe) for seconds, probe in samples]

    def op(self, check, *args):
        """Run one operation; any exception or failed check counts as failed."""
        self.attempted += 1
        try:
            return check(*args)
        except Failure as exc:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(str(exc))
        return None

    def call(self, argv: list[str]) -> tuple[int, float, str]:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # the CLI promises exit codes, not raises
                raise Failure(f"{argv[0]} raised {exc!r}") from exc
        return code, perf_counter() - start, out.getvalue()


def import_rdgraph(run: Run) -> None:
    """Import rdgraph afresh from the checkout's src/ (set-up work)."""
    for name in [n for n in sys.modules if n == "rdgraph" or n.startswith("rdgraph.")]:
        del sys.modules[name]
    package = importlib.import_module("rdgraph")
    if Path(package.__file__).resolve().parent != SRC / "rdgraph":
        raise SystemExit(f"rdgraph imported from {package.__file__}, not {SRC}")
    run.cli = importlib.import_module("rdgraph.cli")
    run.modules = {
        name: sys.modules[f"rdgraph.{name}"]
        for name in ("cli", "config", "pipeline", "textsim", "validate")
    }


# --- operations and their output checks -------------------------------------


def op_ingest(run: Run, dump: Path, artifacts: Path) -> float:
    code, seconds, _ = run.call(["ingest", str(dump), "--format", "git", "-o", str(artifacts)])
    if code != 0:
        raise Failure(f"ingest exited {code}")
    data = artifacts.read_bytes()
    if run.graph_refs.setdefault(artifacts, data) != data:
        raise Failure("two ingests of the same dump differ")
    return seconds


def op_build(run: Run, artifacts: Path, graph: Path, reverts=None) -> tuple[float, dict]:
    code, seconds, out = run.call(["build", str(artifacts), "-o", str(graph)])
    if code != 0:
        raise Failure(f"build exited {code}")
    match = _SUMMARY_RE.match(out.strip())
    if not match:
        raise Failure(f"build printed {out.strip()!r}")
    data = graph.read_bytes()
    if graph not in run.graph_refs:
        run.graph_refs[graph] = data
        check_reverts(data, reverts or [])
    elif data != run.graph_refs[graph]:
        raise Failure("two builds of the same input differ")
    keys = ("decisions", "rationales", "topics", "similar", "history", "contradicts")
    return seconds, dict(zip(keys, map(int, match.groups())))


def check_reverts(data: bytes, reverts: list[tuple[str, str]]) -> None:
    """Every planted revert must give a contradicts edge with revert metadata."""
    doc = json.loads(data)
    found = {
        (edge["from"].rpartition("#")[0], edge["to"].rpartition("#")[0])
        for edge in doc["edges"]
        if edge["kind"] == "contradicts"
        and any(e["feature"] == "revert-metadata" for e in edge["evidence"])
    }
    missing = [pair for pair in reverts if pair not in found]
    if missing:
        raise Failure(f"{len(missing)} planted reverts without a revert contradicts edge")


def op_validate(run: Run, graph: Path) -> float:
    code, seconds, out = run.call(["validate", str(graph), "--json"])
    # Planted: generated rationales never contradict, the structure is sound.
    if code != 0:
        raise Failure(f"validate exited {code}")
    for line in out.splitlines():
        if json.loads(line)["severity"] != "info":
            raise Failure(f"validate reported {line}")
    if run.validate_ref is None:
        run.validate_ref = out
    elif out != run.validate_ref:
        raise Failure("two validations of the same graph differ")
    return seconds


def op_check(run: Run, graph: Path, index: int, proposal: gen.Proposal, path: Path) -> float:
    code, seconds, out = run.call(["check", str(graph), "--file", str(path), "--json"])
    try:
        kinds = [json.loads(line)["kind"] for line in out.splitlines()]
    except (ValueError, KeyError) as exc:
        raise Failure(f"check printed malformed findings: {exc}") from exc
    warned = "conflict-warning" in kinds
    if code != (1 if warned else 0):
        raise Failure(f"check exited {code} with findings {kinds}")
    if proposal.label == gen.WARN and not warned:
        raise Failure(f"must-warn proposal {index} passed: {proposal.text!r}")
    if proposal.label == gen.CLEAN and code != 0:
        raise Failure(f"must-be-clean proposal {index} exited {code}")
    previous = run.check_refs.setdefault(index, out)
    if previous != out:
        raise Failure(f"proposal {index} gave different findings on a repeat")
    return seconds


def fixture_checks(run: Run) -> None:
    """The OOM fixture's pinned build summary and its conflict scenario."""

    def full_build():
        code, _, out = run.call(
            ["build", str(FIXTURES / "artifacts.jsonl"), "-o", str(run.workdir / "oom.json")]
        )
        if code != 0 or out.strip() != FIXTURE_SUMMARY:
            raise Failure(f"fixture build exited {code} with {out.strip()!r}")

    def scenario():
        graph = run.workdir / "oom-d1-d4.json"
        code, _, _ = run.call(["build", str(FIXTURES / "artifacts-d1-d4.jsonl"), "-o", str(graph)])
        if code != 0:
            raise Failure(f"fixture d1-d4 build exited {code}")
        code, _, _ = run.call(
            ["check", str(graph), "--file", str(FIXTURES / "proposed-mrelease.txt")]
        )
        if code != 1:
            raise Failure(f"fixture proposal check exited {code}, expected 1")

    run.op(full_build)
    run.op(scenario)


# --- the workload ---------------------------------------------------------------


@dataclass
class Inputs:
    dump: Path
    artifacts: Path
    graph: Path
    reverts: list[tuple[str, str]]
    proposals: list[gen.Proposal]
    proposal_paths: list[Path]


def write_inputs(workdir: Path, tag: str, workload: gen.Workload) -> Inputs:
    dump = workdir / f"{tag}.dump"
    dump.write_text(workload.dump, encoding="utf-8")
    paths = []
    for index, proposal in enumerate(workload.proposals):
        path = workdir / f"{tag}-proposal-{index:03d}.txt"
        path.write_text(proposal.text + "\n", encoding="utf-8")
        paths.append(path)
    return Inputs(
        dump, workdir / f"{tag}.jsonl", workdir / f"{tag}.graph.json",
        workload.reverts, workload.proposals, paths,
    )


def setup_once(run: Run, inputs: Inputs, tracer=None) -> None:
    """Import rdgraph afresh, load_config, ingest the dump; samples "setup"."""
    gc.collect()
    probe = run.speed.measure()
    start = perf_counter()
    import_rdgraph(run)
    saved = spans.install(tracer, run.modules) if tracer else []
    record = tracer.open("op.setup") if tracer else None
    try:
        run.modules["cli"].load_config(None)
        run.op(op_ingest, run, inputs.dump, inputs.artifacts)
    finally:
        if tracer:
            tracer.close(record)
            spans.uninstall(saved)
    run.sample("setup", perf_counter() - start, probe)
    run.speed.measure()


class Checks:
    """Cycles through the proposals in their fixed interleaved order."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.next = 0
        # Seconds per proposal, each with the index of the probe before it.
        self.samples: dict[int, list[tuple[float, int]]] = {}

    def one(self, run: Run, graph: Path) -> None:
        index = self.next % len(self.inputs.proposals)
        self.next += 1
        probe = run.speed.tick()
        seconds = run.op(
            op_check, run, graph, index,
            self.inputs.proposals[index], self.inputs.proposal_paths[index],
        )
        if seconds is not None:
            self.samples.setdefault(index, []).append((seconds, probe))


def timed_round(run: Run, inputs: Inputs, checks: Checks, n_validates: int, n_checks: int,
                tracer=None, half: Inputs | None = None) -> dict:
    """One closed-loop round; returns the op span records when traced."""
    records: dict[str, list] = {}

    def traced(name, fn, *args):
        if tracer is None:
            return fn(*args)
        index = tracer.open(name)
        try:
            return fn(*args)
        finally:
            tracer.close(index)
            records.setdefault(name, []).append(index)

    gc.collect()
    # A build is long enough to deserve a probe of its own right before it.
    probe = run.speed.measure()
    built = traced("op.build", run.op, op_build, run, inputs.artifacts, inputs.graph,
                   inputs.reverts)
    if built:
        run.sample("build", built[0], probe)
        records["summary"] = built[1]
    for _ in range(n_validates):
        gc.collect()
        probe = run.speed.tick()
        seconds = traced("op.validate", run.op, op_validate, run, inputs.graph)
        if seconds is not None:
            run.sample("validate", seconds, probe)
    gc.collect()
    for _ in range(n_checks):
        traced("op.check", checks.one, run, inputs.graph)
    if half is not None:
        gc.collect()
        traced("op.half_build", run.op, op_build, run, half.artifacts, half.graph, half.reverts)
    return records


# --- metrics --------------------------------------------------------------------


def end_to_end(run: Run, checks: Checks) -> dict:
    """Medians of speed-normalised times; check quantiles over the proposals."""
    setups, builds, validates = (
        run.normalised(run.times.get(key, [])) for key in ("setup", "build", "validate")
    )
    per_proposal = [
        statistics.median(run.normalised(v)) * 1000.0 for v in checks.samples.values()
    ]
    if not (builds and per_proposal and validates):
        raise Failure("an operation kind has no successful sample")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    repeats = [len(v) for v in checks.samples.values()]
    print(
        f"samples setup={len(setups)} build={len(builds)} "
        f"validate={len(validates)} check={sum(repeats)} over "
        f"{len(per_proposal)} proposals, {min(repeats)} to {max(repeats)} each"
    )
    raw_builds = [seconds for seconds, _ in run.times["build"]]
    print(
        f"unnormalised build_s min {min(raw_builds):.4f} median "
        f"{statistics.median(raw_builds):.4f}; {len(run.speed.times)} speed probes, "
        f"median {statistics.median(run.speed.times) * 1000:.3f} ms "
        f"(reference {speed.REFERENCE_S * 1000:.3f} ms)"
    )
    return {
        "setup_s": (statistics.median(setups), "s"),
        "build_s": (statistics.median(builds), "s"),
        "validate_s": (statistics.median(validates), "s"),
        "check_ms_p50": (statistics.median(per_proposal), "ms"),
        "check_ms_p90": (
            statistics.quantiles(per_proposal, n=10, method="inclusive")[8], "ms"
        ),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


BUILD_MODULES = ("corpus", "decisions", "rationale", "textsim", "relations",
                 "graph", "pipeline", "config", "cli")
CHECK_MODULES = ("cli", "config", "graph", "textsim", "validate", "relations")
GROWTH = ("corpus.segment_sentences", "rationale.attach_rationale",
          "relations.cluster_topics", "relations.detect_history",
          "relations.detect_contradicts", "textsim.score")


def traced_round_metrics(tracer: spans.Tracer, records: dict, relatedness: float) -> dict:
    """Per-layer metrics of one traced round; units are added by the caller."""
    m: dict[str, float] = {}

    def stats(index: int) -> spans.OpStats:
        return spans.OpStats(tracer.spans, index)

    b = stats(records["op.build"][0])
    summary = records["summary"]
    n = summary["decisions"]
    wall = b.wall
    m["build.traced_s"] = wall
    for name in ("corpus.parse_jsonl", "corpus.segment_sentences",
                 "decisions.extract_decisions", "rationale.attach_rationale",
                 "relations.cluster_topics", "relations.detect_similar",
                 "relations.detect_history", "relations.detect_contradicts",
                 "relations.title_topic", "graph.build_graph", "graph.save"):
        m[f"{name}.s"] = b.busy.get(name, 0.0)
    m["corpus.segment_sentences.share"] = m["corpus.segment_sentences.s"] / wall
    m["corpus.sentences"] = b.values.get("corpus.segment_sentences", 0)
    m["decisions.decisions"] = b.values.get("decisions.extract_decisions", 0)
    m["rationale.spans"] = b.values.get("rationale.attach_rationale", 0)
    m["textsim.score.calls"] = b.calls.get("textsim.score", 0)
    m["textsim.score.s"] = b.busy.get("textsim.score", 0.0)
    m["relations.cluster_topics.self_s"] = b.self_time.get("relations.cluster_topics", 0.0)
    m["relations.cluster_topics.share"] = m["relations.cluster_topics.s"] / wall
    scored = b.score_calls.get("relations.cluster_topics", 0)
    linked = sum(v >= relatedness for v in b.score_values.get("relations.cluster_topics", []))
    m["relations.cluster_topics.pairs_scored"] = scored
    m["relations.cluster_topics.pairs_linked"] = linked
    m["relations.cluster_topics.link_ratio"] = linked / scored if scored else 0.0
    m["relations.pairs_ratio"] = scored / (n * (n - 1) / 2) if n > 1 else 0.0
    m["relations.detect_similar.pairs_scored"] = b.score_calls.get("relations.detect_similar", 0)
    m["relations.detect_history.calls"] = b.calls.get("relations.detect_history", 0)
    m["relations.detect_contradicts.calls"] = b.calls.get("relations.detect_contradicts", 0)
    m["relations.similar_edges"] = summary["similar"]
    m["relations.history_edges"] = summary["history"]
    m["relations.contradicts_edges"] = summary["contradicts"]
    m["relations.topic_max_members"] = b.values.get("relations.cluster_topics", 0)
    m["graph.bytes"] = b.values.get("graph.save", 0)
    m["pipeline.build_pipeline.self_s"] = b.self_time.get("pipeline.build_pipeline", 0.0)
    m["cli.self_s"] = b.module_self.get("cli", 0.0)
    for module in BUILD_MODULES:
        m[f"build.{module}.self_s"] = b.module_self.get(module, 0.0)
        m[f"build.{module}.busy_s"] = b.module_busy.get(module, 0.0)
        m[f"build.{module}.share"] = b.module_self.get(module, 0.0) / wall
    m["tracing.spans"] = sum(b.calls.values())

    v = stats(records["op.validate"][0])
    m["validate.traced_s"] = v.wall
    m["validate.validate_structure.s"] = v.busy.get("validate.validate_structure", 0.0)
    m["validate.check_rationale_consistency.s"] = v.busy.get(
        "validate.check_rationale_consistency", 0.0
    )

    checks = [stats(r) for r in records["op.check"]]
    k = len(checks)

    def mean(fn) -> float:
        return sum(fn(c) for c in checks) / k

    m["check.traced_ms"] = mean(lambda c: c.wall) * 1000.0
    m["graph.load.s"] = mean(lambda c: c.busy.get("graph.load", 0.0))
    m["textsim.build_model.s"] = mean(lambda c: c.busy.get("textsim.build_model", 0.0))
    m["textsim.vocabulary"] = mean(lambda c: c.values.get("textsim.build_model", 0))
    m["validate.check_new_decision.s"] = mean(
        lambda c: c.busy.get("validate.check_new_decision", 0.0)
    )
    m["validate.check_new_decision.score_calls"] = mean(
        lambda c: c.score_calls.get("validate.check_new_decision", 0)
    )
    m["validate.conflict_warnings"] = mean(
        lambda c: c.values.get("validate.check_new_decision", 0)
    )
    for module in CHECK_MODULES:
        m[f"check.{module}.share"] = mean(lambda c: c.module_self.get(module, 0.0) / c.wall)
    m["check.load_model_scan.share"] = (
        m["graph.load.s"] + m["textsim.build_model.s"] + m["validate.check_new_decision.s"]
    ) / (m["check.traced_ms"] / 1000.0)

    h = stats(records["op.half_build"][0])
    for name in GROWTH:
        m[f"{name}.growth"] = spans.log2_ratio(b.busy.get(name, 0.0), h.busy.get(name, 0.0))
    return m


def per_layer_units(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    if name.endswith(".growth"):
        return "log2"
    if name == "graph.bytes":
        return "bytes"
    return "count"


# --- measurement ----------------------------------------------------------------


def measure(spec: Spec, args, run: Run) -> dict:
    """Untraced: set-ups, then closed-loop rounds until the deadline."""
    inputs = write_inputs(run.workdir, "full", make(spec, args.seed, args.scale))
    setup_once(run, inputs)
    checks = Checks(inputs)
    deadline = perf_counter() + args.seconds
    rounds = 0
    while rounds == 0 or perf_counter() < deadline:
        # Repeats of the set-up are spread over the run, so that their median
        # sees the same machine load as the timed operations.
        if len(run.times["setup"]) < SETUPS:
            setup_once(run, inputs)
        timed_round(run, inputs, checks, VALIDATES_PER_ROUND, spec.checks_per_round)
        rounds += 1
    while len(run.times["setup"]) < SETUPS:
        setup_once(run, inputs)
    while checks.next < MIN_REPEATS * len(inputs.proposals):
        checks.one(run, inputs.graph)
    # The probe after the last timed operation.
    run.speed.measure()
    fixture_checks(run)
    report_graph(args, run, inputs)
    print(f"rounds {rounds}")
    return end_to_end(run, checks)


def measure_traced(spec: Spec, args, run: Run) -> dict:
    """Traced and untraced rounds alternate; per-layer medians over traced ones."""
    inputs = write_inputs(run.workdir, "full", make(spec, args.seed, args.scale))
    half = write_inputs(run.workdir, "half", make(spec, args.seed, args.scale / 2))
    tracer = spans.Tracer()
    setup_once(run, inputs)
    setup_once(run, inputs, tracer)
    run.op(op_ingest, run, half.dump, half.artifacts)
    relatedness = run.modules["config"].default_config().thresholds.relatedness
    checks = Checks(inputs)
    per_round: list[dict] = []
    untraced_builds: list[float] = []
    traced_builds: list[float] = []
    deadline = perf_counter() + args.seconds
    while len(per_round) < 2 or perf_counter() < deadline:
        timed_round(run, inputs, checks, 1, 12)
        if run.failed:
            raise Failure(f"traced run needs a working program: {run.messages[0]}")
        untraced_builds.append(run.times["build"][-1][0])
        saved = spans.install(tracer, run.modules)
        try:
            records = timed_round(run, inputs, checks, 1, 12, tracer=tracer, half=half)
        finally:
            spans.uninstall(saved)
        if run.failed:
            raise Failure(f"traced run needs a working program: {run.messages[0]}")
        per_round.append(traced_round_metrics(tracer, records, relatedness))
        traced_builds.append(per_round[-1]["build.traced_s"])
        # Keep the recorded spans out of later collections, so that untraced
        # builds do not slow down as the trace grows.
        gc.freeze()
    fixture_checks(run)
    report_graph(args, run, inputs)

    metrics = {
        name: statistics.median(r[name] for r in per_round) for name in per_round[0]
    }
    setup = spans.OpStats(tracer.spans, 0)  # the traced set-up's op span
    for name in ("corpus.parse_git_log", "corpus.dumps_artifacts"):
        metrics[f"{name}.s"] = setup.busy.get(name, 0.0)
    load_config = [
        end - start for name, start, end, _, _ in tracer.spans
        if name == "config.load_config"
    ]
    metrics["config.load_config.s"] = statistics.median(load_config)
    # Fastest against fastest: machine noise only ever adds time.
    overhead = min(traced_builds) - min(untraced_builds)
    metrics["tracing.overhead_s"] = overhead
    metrics["tracing.overhead_share"] = overhead / min(untraced_builds)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(trace_path)
    print(f"traced rounds {len(per_round)}; spans written to {trace_path.relative_to(ROOT)}")
    return {name: (value, per_layer_units(name)) for name, value in sorted(metrics.items())}


def make(spec: Spec, seed: int, scale: float) -> gen.Workload:
    size = max(1, round(spec.size * scale))
    return spec.make(seed, **{spec.size_arg: size})


def report_graph(args, run: Run, inputs: Inputs) -> None:
    data = run.graph_refs.get(inputs.graph)
    digest = hashlib.sha256(data).hexdigest() if data is not None else "none"
    print(f"graph_sha256 {args.workload} seed={args.seed} {digest}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply the workload size (the smoke test uses a tiny one)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rdgraph" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"error: rdgraph sources or fixtures not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = WORKLOADS[args.workload]
    print(f"workload {args.workload}: {spec.why}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    run = Run(workdir, speed.Probe())
    started = time.time()
    try:
        values = (measure_traced if args.trace else measure)(spec, args, run)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in run.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(
        f"failed_frac {run.failed}/{run.attempted} = {run.failed / run.attempted:.6f}; "
        f"wall {time.time() - started:.1f} s"
    )
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

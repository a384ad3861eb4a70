"""The layer probes and the per-layer metrics computed from their spans.

Each probe times one public entry point of a layer.  The metric names
and units are declared in ``BENCHMARK.json``; those with a ``/op`` unit
are sums over the traced ops divided by the number of traced ops.  A
layer that does not run in this process on a workload (no fabric on
leak-fig2, no pool on federation-h50, concolic sessions inside pool
workers on stream-h50) reports 0.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bgp.router import BgpRouter
from repro.checkpoint.snapshot import Checkpoint
from repro.concolic.engine import ConcolicEngine
from repro.concolic.solver.solver import ConstraintSolver
from repro.core import BuiltScenario, FaultChecker, IsolatedFabric, Scenario
from repro.core import federation as federation_module
from repro.parallel.explorer import ParallelExplorer
from repro.parallel.stream import StreamingExplorer

from perfbench.tracing import Probe, Span, Tracer, descendants, layer_table, self_times


@dataclass
class _FabricSeen:
    fabric: object
    clones: int
    tables: Optional[dict] = None
    touched: Set[str] = field(default_factory=set)


class LayerProbes:
    """Probes for set-up and for ops, plus the fabric bookkeeping that
    turns inject/digest calls into ``federation.touched_ratio``."""

    def __init__(self) -> None:
        self._fabrics: Dict[int, _FabricSeen] = {}

    def setup_probes(self) -> List[Probe]:
        return [
            Probe(Scenario, "build", "scenario.build"),
            Probe(BuiltScenario, "converge", "converge"),
            Probe(BgpRouter, "on_message", "converge.on_message"),
        ]

    def op_probes(self) -> List[Probe]:
        checkers = [
            cls for cls in _subclasses(FaultChecker) if "check" in cls.__dict__
        ]
        return [
            Probe(Checkpoint, "capture", "checkpoint.capture", self._on_capture),
            Probe(Checkpoint, "restore", "checkpoint.restore"),
            Probe(BgpRouter, "snapshot_segments", "checkpoint.segments"),
            Probe(ConcolicEngine, "explore", "concolic.engine", self._on_explore),
            Probe(ConstraintSolver, "solve", "concolic.solver"),
            Probe(ConstraintSolver, "solve_batch", "concolic.solver"),
            *(Probe(cls, "check", "checkers", self._on_check) for cls in checkers),
            Probe(IsolatedFabric, "__init__", "federation.clone", self._on_fabric),
            Probe(IsolatedFabric, "inject", "federation.inject", self._on_inject),
            Probe(IsolatedFabric, "propagate", "federation.wave", self._on_wave),
            Probe(IsolatedFabric, "digest_tables", "federation.digest", self._on_digest),
            Probe(federation_module, "conflict_pairs", "federation.digest"),
            Probe(ParallelExplorer, "explore_nodes", "parallel.batch"),
            Probe(StreamingExplorer, "start_nodes", "parallel.pool_start"),
            Probe(StreamingExplorer, "submit", "parallel.submit"),
            Probe(StreamingExplorer, "close", "parallel.drain"),
        ]

    # -- counters recorded at the probed boundaries ------------------------

    @staticmethod
    def _on_capture(span: Span, args: tuple, checkpoint) -> None:
        span.attrs["bytes"] = checkpoint.size_bytes

    @staticmethod
    def _on_explore(span: Span, args: tuple, report) -> None:
        span.attrs["executions"] = report.executions
        span.attrs["unique_paths"] = report.unique_paths
        span.attrs["solver_queries"] = report.solver_queries

    @staticmethod
    def _on_check(span: Span, args: tuple, findings) -> None:
        span.attrs["findings"] = len(findings)

    @staticmethod
    def _on_wave(span: Span, args: tuple, stats) -> None:
        span.attrs["delivered"] = stats.delivered

    def _on_fabric(self, span: Span, args: tuple, result) -> None:
        fabric = args[0]
        span.attrs["clones"] = len(fabric.clones)
        self._fabrics[id(fabric)] = _FabricSeen(fabric, len(fabric.clones))

    def _on_inject(self, span: Span, args: tuple, result) -> None:
        self._fabrics[id(args[0])].touched.add(args[1])

    def _on_digest(self, span: Span, args: tuple, tables) -> None:
        # Digest tables are cached per clone until the clone mutates, so
        # a clone whose digest object changed between two calls was
        # delivered to by the wave in between.
        seen = self._fabrics[id(args[0])]
        if seen.tables is not None:
            seen.touched.update(
                node for node, digest in tables.items() if seen.tables.get(node) is not digest
            )
        seen.tables = tables

    def take_touched(self) -> Tuple[int, int]:
        """(clones built, clones touched) since the last call."""
        built = sum(seen.clones for seen in self._fabrics.values())
        touched = sum(len(seen.touched) for seen in self._fabrics.values())
        self._fabrics.clear()
        return built, touched


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# ---------------------------------------------------------------------------
# Metrics from spans.
# ---------------------------------------------------------------------------


def _outermost(spans: Sequence[Span], name: str) -> List[Span]:
    """Spans named ``name`` not nested in another span of that name."""
    by_id = {span.id: span for span in spans}
    found = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            found.append(span)
    return found


def _total(spans: Sequence[Span], name: str) -> float:
    return sum(span.duration for span in _outermost(spans, name))


def _count(spans: Sequence[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


def _attr(spans: Sequence[Span], name: str, key: str) -> float:
    return sum(span.attrs.get(key, 0) for span in spans if span.name == name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def setup_metrics(tracer: Tracer, root: int) -> Dict[str, float]:
    spans = descendants(tracer.spans, root)
    msgs = _count(spans, "converge.on_message")
    return {
        "scenario.build_s": _total(spans, "scenario.build"),
        "converge.s": _total(spans, "converge"),
        "converge.msgs": msgs,
        "converge.msg_us": _ratio(_total(spans, "converge.on_message"), msgs) * 1e6,
    }


def op_metrics(
    tracer: Tracer,
    roots: Sequence[int],
    streams: Sequence[object],
    fabrics: Tuple[int, int],
    untraced_walls: Sequence[float],
) -> Dict[str, float]:
    """Per-op layer metrics over the traced ops rooted at ``roots``.

    ``streams`` are the outcomes of those ops that ran a pool (empty
    when none did), ``fabrics`` the (built, touched) clone counts and
    ``untraced_walls`` the interleaved untraced ops, for the overhead.
    """
    summaries = [outcome.stream_summary for outcome in streams]
    n = len(roots)
    spans = [span for root in roots for span in descendants(tracer.spans, root)]
    own = self_times(spans)
    walls = [tracer.spans[root].duration for root in roots]
    captures = _count(spans, "checkpoint.capture")
    execs = _attr(spans, "concolic.engine", "executions")

    gc_pause, gen2 = 0.0, 0
    for start, end, generation in tracer.gc_pauses:
        if any(tracer.spans[r].start <= start and end <= tracer.spans[r].end for r in roots):
            gc_pause += end - start
            gen2 += generation == 2

    # Worker busy share: the concolic session seconds the workers
    # measured over the stream's wall (pool start to drained) times the
    # pool size.  Worker lifetime would not do: a fixed pool lives from
    # start to close, so that ratio is about 1 however jobs are spread.
    stream_wall = 0.0
    for root in roots:
        tree = descendants(tracer.spans, root)
        starts = [s.start for s in tree if s.name == "parallel.pool_start"]
        ends = [s.end for s in tree if s.name == "parallel.drain"]
        if starts and ends:
            stream_wall += max(ends) - min(starts)
    busy = sum(outcome.session_seconds for outcome in streams)
    pool = max((int(s["workers"]) for s in summaries), default=0)
    harvest = [float(s["harvest_latency_mean"]) for s in summaries]

    traced_p50 = statistics.median(walls)
    return {
        "checkpoint.capture_n": captures / n,
        "checkpoint.capture_s": _total(spans, "checkpoint.capture") / n,
        "checkpoint.segments_s": _total(spans, "checkpoint.segments") / n,
        "checkpoint.image_kb": _ratio(_attr(spans, "checkpoint.capture", "bytes"), captures) / 1024,
        "checkpoint.restore_n": _count(spans, "checkpoint.restore") / n,
        "checkpoint.restore_s": _total(spans, "checkpoint.restore") / n,
        "concolic.engine_self_s": sum(
            own[s.id] for s in spans if s.name == "concolic.engine"
        ) / n,
        "concolic.execs": execs / n,
        "concolic.unique_path_ratio": _ratio(
            _attr(spans, "concolic.engine", "unique_paths"), execs
        ),
        "concolic.solver_s": _total(spans, "concolic.solver") / n,
        "concolic.solver_queries": _attr(spans, "concolic.engine", "solver_queries") / n,
        "checkers.s": _total(spans, "checkers") / n,
        "checkers.findings": _attr(spans, "checkers", "findings") / n,
        "federation.clone_s": _total(spans, "federation.clone") / n,
        "federation.clones": fabrics[0] / n,
        "federation.touched_ratio": _ratio(fabrics[1], fabrics[0]),
        "federation.wave_s": _total(spans, "federation.wave") / n,
        "federation.wave_delivered": _attr(spans, "federation.wave", "delivered") / n,
        "federation.digest_s": _total(spans, "federation.digest") / n,
        "parallel.batch_s": _total(spans, "parallel.batch") / n,
        "parallel.pool_start_s": _total(spans, "parallel.pool_start") / n,
        "parallel.submit_wait_s": _total(spans, "parallel.submit") / n,
        "parallel.drain_s": _total(spans, "parallel.drain") / n,
        "parallel.image_bytes": sum(
            int(s["checkpoint_bytes_shipped"]) for s in summaries
        ) / n,
        "parallel.busy_ratio": _ratio(busy, stream_wall * pool),
        "parallel.harvest_latency_s": statistics.median(harvest) if harvest else 0.0,
        "parallel.recoveries": sum(
            int(s["jobs_recovered"]) + int(s["workers_restarted"]) + int(s["jobs_retried"])
            for s in summaries
        ) / n,
        "gc.pause_s": gc_pause / n,
        "gc.gen2_n": gen2 / n,
        "gc.pause_share": _ratio(gc_pause, sum(walls)),
        "op.traced_p50_s": traced_p50,
        "op.unattributed_s": sum(own[root] for root in roots) / n,
        "tracing.overhead_s": traced_p50 - statistics.median(untraced_walls),
    }


def self_time_table(tracer: Tracer, roots: Sequence[int]) -> List[Tuple[str, float]]:
    """Per-layer self seconds per traced op, largest first, remainder last."""
    table = layer_table(tracer.spans, roots)
    remainder = table.pop("unattributed", 0.0)
    rows = sorted(table.items(), key=lambda item: -item[1])
    rows.append(("unattributed", remainder))
    return [(name, total / len(roots)) for name, total in rows]

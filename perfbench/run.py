"""Run one benchmark workload against the program and print its metrics.

    python3 perfbench/run.py --workload leak-fig2 --seed 20100401 --seconds 25 --trace 0

Run from the root of a checkout that holds ``src/repro``.  The run sets
the workload up (build plus live convergence, checked for quiescence),
runs ops on it in a closed loop with one caller for ``--seconds``
seconds (at least ``MIN_OPS`` ops, and at least the workload's
``timed_ops``), then checks each op's finding digest against a
reference, taken only now so that a reference op (stream-h50's serial
one) is not measured, and sets up ``SETUPS - 1`` more times so that
``setup_s`` is a median.  Human-readable lines come first;
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``op_p50_s``, ``execs_per_s``, ``peak_rss_mb``).  With ``--trace 1`` the
run sets up once under the set-up probes, alternates untraced and
traced ops (untraced, traced, traced, untraced, ...), prints a per-layer
self-time table and reports the per-layer metrics and the tracing
overhead; the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Ops every run makes, however long they take; ``peak_rss_mb`` is read
#: after the last of them.  leak-fig2 keeps every round's report, so a
#: high-water mark read at the end of a timed loop would grow with the
#: number of rounds a faster program fits in, not with its footprint.
MIN_OPS = 3
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def declared_units(kind: str) -> dict:
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer"),
    in BENCHMARK.json's order: the one list of what a run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[kind]}


class RunFailed(Exception):
    """The run cannot be timed (a set-up did not quiesce)."""


def _load_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise RunFailed(f"the program's sources (src/repro) are not under {ROOT}")
    for path in (ROOT, src):
        if path not in sys.path:
            sys.path.insert(0, path)


def set_up(workload, seed: int):
    """Build and converge; returns (built, seconds).  Raises RunFailed
    unless the live federation is quiescent and its invariants hold."""
    started = time.perf_counter()
    built = workload.build(seed)
    built.converge()
    elapsed = time.perf_counter() - started
    problems = [finding.summary for finding in built.check_invariants()]
    pending = built.host.sim.pending
    if pending:
        problems.append(f"{pending} events still pending after convergence")
    if problems:
        raise RunFailed("set-up not quiescent: " + "; ".join(problems[:5]))
    return built, elapsed


class OpLoop:
    """Closed-loop ops; :meth:`check` compares their outputs afterwards."""

    def __init__(self, workload, built, inputs) -> None:
        self.workload = workload
        self.built = built
        self.inputs = inputs
        self.walls: List[float] = []
        self.outcomes: list = []
        self.problems: List[str] = []
        self.reference = None

    def run(self):
        started = time.perf_counter()
        outcome, problem = None, ""
        try:
            outcome = self.workload.op(self.built, self.inputs)
        except Exception:  # an op that raises is a failed op; keep looping
            problem = "raised:\n" + traceback.format_exc()
        wall = time.perf_counter() - started
        if outcome is not None:
            problem = outcome.problem
        self.walls.append(wall)
        self.outcomes.append(outcome)
        self.problems.append(problem)
        return wall, outcome

    def check(self, reference) -> None:
        """Fail every op whose digest differs from ``reference`` (None:
        the first op without a structural problem)."""
        if reference is None:
            reference = next(
                (o for o, p in zip(self.outcomes, self.problems) if not p), None
            )
        self.reference = reference
        for index, outcome in enumerate(self.outcomes):
            if not self.problems[index] and (outcome.counts, outcome.digest) != (
                reference.counts, reference.digest
            ):
                self.problems[index] = (
                    f"finding digest {outcome.digest[:12]} {outcome.counts} differs from "
                    f"reference {reference.digest[:12]} {reference.counts}"
                )
            if self.problems[index]:
                print(f"op {index + 1} failed: {self.problems[index]}", file=sys.stderr, flush=True)

    @property
    def failed(self) -> int:
        return sum(1 for problem in self.problems if problem)

    @property
    def needed(self) -> int:
        """Ops every run makes, whatever ``--seconds`` says."""
        return max(MIN_OPS, self.workload.timed_ops or 0)

    @property
    def timed_count(self) -> int:
        """How many ops, from the first, the timing metrics cover."""
        return self.workload.timed_ops or len(self.walls)

    def timed(self) -> Tuple[List[float], List[float], int]:
        """(walls, walls of ops that passed, executions) over the ops the
        timing metrics cover."""
        count = self.timed_count
        walls = self.walls[:count]
        ok = [wall for wall, problem in zip(walls, self.problems) if not problem]
        executions = sum(o.executions for o in self.outcomes[:count] if o is not None)
        return walls, ok, executions

    def describe(self) -> List[str]:
        from perfbench import stats

        n = len(self.walls)
        walls, ok, _ = self.timed()
        reference = self.reference
        return [
            stats.describe_timing(f"op (first {len(walls)} of {n})", ok or walls),
            "op walls " + " ".join(f"{wall:.4f}" for wall in self.walls),
            f"op_fail_ratio {self.failed}/{n} = {self.failed / n:.4f}",
            f"reference: {reference.counts if reference else None} "
            f"digest {reference.digest[:16] if reference else '-'}",
        ]


def _peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest reaped
    child (a stream-h50 pool worker).  Workers are forked, so the child's
    figure includes the pages it shares with this process: on stream-h50
    a change to this process's memory counts about twice."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def plain_run(workload, seed: int, seconds: float) -> dict:
    built, first_setup = set_up(workload, seed)
    inputs = workload.inputs(built, seed)
    loop = OpLoop(workload, built, inputs)
    deadline = time.perf_counter() + seconds
    while True:
        loop.run()
        if len(loop.walls) == MIN_OPS:
            peak_rss = _peak_rss_mb()
        if len(loop.walls) >= loop.needed and time.perf_counter() >= deadline:
            break
    loop.check(workload.reference(built, inputs, seed))
    for line in loop.describe():
        print(line, flush=True)
    # The remaining set-ups run after the ops, so that their garbage
    # does not inflate the memory high-water mark read above.
    loop.built = built = None
    setups = [first_setup] + [set_up(workload, seed)[1] for _ in range(SETUPS - 1)]
    print("setup_s " + " ".join(f"{t:.4f}" for t in setups), flush=True)
    walls, ok, executions = loop.timed()
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(ok or walls),
        "execs_per_s": executions / sum(walls),
        "peak_rss_mb": peak_rss,
    }
    return _result(loop, metrics, "end_to_end")


def traced_run(workload, seed: int, seconds: float) -> dict:
    from perfbench import layers
    from perfbench.tracing import Tracer, probed

    tracer = Tracer()
    probes = layers.LayerProbes()
    with probed(tracer, probes.setup_probes()), tracer.span("setup") as setup_root:
        built, _ = set_up(workload, seed)
    inputs = workload.inputs(built, seed)
    loop = OpLoop(workload, built, inputs)
    op_probes = probes.op_probes()
    traced, untraced = [], []  # (op index, root span id) / (op index, wall)
    deadline = time.perf_counter() + seconds
    while True:
        index = len(loop.walls)
        # ABBA order (untraced, traced, traced, untraced) balances the
        # drift of ops that slow as rounds accumulate.
        if index % 4 in (1, 2):
            with probed(tracer, op_probes), tracer.gc_watch(), tracer.span("op") as root:
                loop.run()
            traced.append((index, root.id))
        else:
            untraced.append((index, loop.run()[0]))
        if len(loop.walls) >= loop.needed and time.perf_counter() >= deadline:
            break
    loop.check(workload.reference(built, inputs, seed))
    for line in loop.describe():
        print(line, flush=True)
    count = loop.timed_count
    roots = [root for index, root in traced if index < count]
    streams = [loop.outcomes[index] for index, _ in traced if index < count]
    streams = [o for o in streams if o is not None and o.stream_summary is not None]
    metrics = layers.setup_metrics(tracer, setup_root.id)
    metrics.update(
        layers.op_metrics(
            tracer, roots, streams, probes.take_touched(),
            [wall for index, wall in untraced if index < count],
        )
    )
    _print_table(workload.name, layers.self_time_table(tracer, roots), metrics, len(roots))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload.name}-{seed}.json")
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}", flush=True)
    return _result(loop, metrics, "per_layer")


def _print_table(name: str, rows, metrics, traced: int) -> None:
    wall = sum(seconds for _, seconds in rows)
    print(f"self time per traced op, {name} (n={traced} traced ops, {wall:.4f} s/op):")
    for layer, seconds in rows:
        print(f"  {layer:<22} {seconds:10.4f} s  {seconds / wall:7.2%}")
    print(
        f"  beside the table: gc pauses {metrics['gc.pause_s']:.4f} s/op "
        f"({metrics['gc.pause_share']:.2%} of op wall, {metrics['gc.gen2_n']:.1f} gen-2/op); "
        f"tracing overhead {metrics['tracing.overhead_s']:+.4f} s on op p50",
        flush=True,
    )


def _result(loop: OpLoop, metrics: dict, kind: str) -> dict:
    return {
        "correct": loop.failed == 0,
        "attempted": len(loop.walls),
        "failed": loop.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared_units(kind).items()
        },
    }


def main(argv: Optional[List[str]] = None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2010_04_01)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _load_program()
        from perfbench import workloads

        if args.workload not in workloads.WORKLOADS:
            raise RunFailed(
                f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}"
            )
        workload = workloads.WORKLOADS[args.workload](sizes or workloads.FULL)
        print(
            f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace} nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()}",
            flush=True,
        )
        print(f"inputs: {workload.describe()}", flush=True)
        run = traced_run if args.trace else plain_run
        result = run(workload, args.seed, args.seconds)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

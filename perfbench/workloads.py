"""The benchmark's workloads: how each one sets up, what one op is, and
how an op's output is reduced to a digest and checked.

Every workload is a closed loop with one caller: the next op starts when
the previous one returns.  The program is driven only through its public
API — ``get_scenario(...).build``, ``BuiltScenario.converge``,
``DiCE.run_round`` and ``FederatedExploration.explore``.

* ``leak-fig2`` — the paper's section 4.2 leak detection on the Figure 2
  testbed (erroneous customer filter).  One op is one DiCE round on the
  same live provider, so per-round costs that grow with accumulated
  rounds show.  The workload seed drives the replayed trace.
* ``federation-h50`` — one federated exploration of ``hierarchical-50``
  through the serial engine: per-AS checkpoints, concolic sessions, a
  clone of every router, the wave and the digest check.  The topology is
  the scenario's default build (50 ASes, 81 edges) so that run cost does
  not swing with the graph; the workload seed drives the 50-seed hijack
  corpus.
* ``stream-h50`` — the same build and corpus through the streaming
  engine with a 2-worker pool.  Its digest must equal the serial one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.concolic.engine import ExplorationBudget
from repro.core import BuiltScenario, get_scenario, synthesize_hijack_corpus

#: The paper's trace date; the registry's default build seed too.
DEFAULT_SEED = 2010_04_01
#: stream-h50's pool size: one worker per core of the 2-core machine the
#: bounds were set on.
POOL = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  ``FULL`` is the benchmark; ``TINY`` the self-test."""

    prefixes: int = 2000
    updates: int = 200
    round_executions: int = 32
    federation: str = "hierarchical-50"
    session_executions: int = 16


FULL = Sizes()
TINY = Sizes(
    prefixes=80, updates=16, round_executions=8,
    federation="tiered-8", session_executions=2,
)


@dataclass
class Outcome:
    """What one op produced, reduced for checking."""

    executions: int
    digest: str
    counts: Tuple[int, ...]
    #: Non-empty when the op failed a structural check (wave not
    #: converged, jobs dropped or quarantined by the pool, no input).
    problem: str = ""
    stream_summary: Optional[Dict[str, object]] = None
    #: Concolic session seconds, as each session measured them (inside
    #: the pool workers on stream-h50): the pool's busy time.
    session_seconds: float = 0.0


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Workload:
    name = ""
    #: The timing metrics cover the first ``timed_ops`` ops, which every
    #: run makes however long they take; None covers every op made in
    #: the run's ``--seconds``.
    timed_ops: Optional[int] = None

    def __init__(self, sizes: Sizes = FULL) -> None:
        self.sizes = sizes

    def build(self, seed: int) -> BuiltScenario:
        raise NotImplementedError

    def inputs(self, built: BuiltScenario, seed: int) -> object:
        """The op's input, made from the workload seed (not timed)."""
        return None

    def op(self, built: BuiltScenario, inputs: object) -> Outcome:
        raise NotImplementedError

    def reference(self, built: BuiltScenario, inputs: object, seed: int) -> Optional[Outcome]:
        """The expected outcome, or None to take the first op's.  Asked
        for after the measured ops, so that any op it runs is not
        measured."""
        pinned = PINNED.get((self.name, seed)) if self.sizes == FULL else None
        if pinned is None:
            return None
        counts, digest = pinned
        return Outcome(0, digest, counts)

    def describe(self) -> str:
        raise NotImplementedError


class LeakFig2(Workload):
    name = "leak-fig2"
    # DiCE keeps every round, so rounds slow as they accumulate (about
    # 3.3 s first, 5 s by the sixth).  Timing a fixed number of rounds
    # keeps a faster program from being judged on later, slower rounds.
    timed_ops = 6

    def build(self, seed: int) -> BuiltScenario:
        return get_scenario("fig2").build(
            seed=seed,
            filter_mode="erroneous",
            prefix_count=self.sizes.prefixes,
            update_count=self.sizes.updates,
        )

    def op(self, built: BuiltScenario, inputs: object) -> Outcome:
        report = built.dice.run_round(
            peer="customer",
            budget=ExplorationBudget(max_executions=self.sizes.round_executions),
        )
        if report is None:
            return Outcome(0, "", (), problem="no customer input observed")
        leaked = sorted(str(prefix) for prefix in report.leaked_prefixes())
        return Outcome(report.exploration.executions, _digest(leaked), (len(leaked),))

    def describe(self) -> str:
        s = self.sizes
        return (
            f"fig2 erroneous filter, {s.prefixes} prefixes, {s.updates} updates, "
            f"run_round(peer='customer', max_executions={s.round_executions})"
        )


class FederationH50(Workload):
    name = "federation-h50"
    stream = False

    def build(self, seed: int) -> BuiltScenario:
        # The topology stays the scenario's default build: the workload
        # seed varies the corpus, not the graph whose size sets the cost.
        return get_scenario(self.sizes.federation).build()

    def inputs(self, built: BuiltScenario, seed: int) -> object:
        return synthesize_hijack_corpus(built.graph, seed)

    def explore(self, built: BuiltScenario, corpus, stream: bool) -> Outcome:
        report = built.federation().explore(
            corpus,
            budget=ExplorationBudget(max_executions=self.sizes.session_executions),
            stream=stream,
            workers=POOL if stream else 1,
        )
        problems = []
        if not report.converged:
            problems.append("wave did not converge")
        summary = report.stream_summary
        if summary is not None:
            for key in ("jobs_dropped", "jobs_quarantined", "errors"):
                if summary[key]:
                    problems.append(f"{key}={summary[key]}")
        keys = [repr(key) for key in report.finding_keys()]
        global_findings = sorted(
            f"{f.prefix_digest.hex()} {f.nodes} {f.stage}" for f in report.global_findings
        )
        return Outcome(
            sum(session.exploration.executions for session in report.sessions),
            _digest(keys + ["--"] + global_findings),
            (len(keys), len(global_findings)),
            problem="; ".join(problems),
            stream_summary=summary,
            session_seconds=sum(session.exploration.wall_seconds for session in report.sessions),
        )

    def op(self, built: BuiltScenario, corpus) -> Outcome:
        return self.explore(built, corpus, self.stream)

    def describe(self) -> str:
        s = self.sizes
        engine = f"stream=True, workers={POOL}" if self.stream else "workers=1"
        return (
            f"{s.federation} default build, hijack corpus from the workload seed, "
            f"explore(max_executions={s.session_executions}, {engine})"
        )


class StreamH50(FederationH50):
    name = "stream-h50"
    stream = True

    def reference(self, built: BuiltScenario, corpus, seed: int) -> Optional[Outcome]:
        # Serial ≡ stream: without a pinned digest the reference is the
        # serial engine's op on the same inputs, run after the measured ops.
        pinned = super().reference(built, corpus, seed)
        return pinned if pinned is not None else self.explore(built, corpus, stream=False)


WORKLOADS = {cls.name: cls for cls in (LeakFig2, FederationH50, StreamH50)}

#: Reference outcomes at the default seed and full sizes:
#: ``(counts, sha256 of the finding set)``.  stream-h50 shares
#: federation-h50's, which is the serial ≡ stream check at scale.
_H50 = ((4900, 5217), "969a933259351905523cbcdecc9a5822bb56ffa733dc5c4624b002aae8947b6c")
PINNED: Dict[Tuple[str, int], Tuple[Tuple[int, ...], str]] = {
    ("leak-fig2", DEFAULT_SEED): (
        (1915,), "4b63d9f0918f8a28fca3d0a9e53d76672a42efa14e689310472a87b45a3bdb1e"
    ),
    ("federation-h50", DEFAULT_SEED): _H50,
    ("stream-h50", DEFAULT_SEED): _H50,
}

"""Spans around calls into each layer, recorded from outside the program.

The traced run patches the public entry points of each layer (see
:data:`PROBES`) with thin wrappers that open a span on entry and close it
on return, then restores the originals.  Spans are kept in memory as
``(id, parent, name, start, end, attrs)`` records and written out once,
when the run ends.  A layer's *self time* is its span's duration minus
the part of that interval its child spans cover; summed over every span
inside an op plus the op's own remainder, self times account for the
op's whole wall time.

Garbage-collector pauses come from ``gc.callbacks``, which observes
collections without changing when they happen.  They overlap whatever
span was open when the collector ran, so they are reported beside the
self-time table, never inside its sum.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.gc_pauses: List[Tuple[float, float, int]] = []
        self._stack: List[int] = []
        self._gc_started = 0.0

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        opened = self.begin(name)
        try:
            yield opened
        finally:
            self.end(opened)

    # -- garbage-collector pauses ----------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pauses.append(
                (self._gc_started, time.perf_counter(), info["generation"])
            )

    @contextmanager
    def gc_watch(self) -> Iterator[None]:
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": [
                        [s.id, s.parent, s.name, s.start, s.end, s.attrs]
                        for s in self.spans
                    ],
                    "gc_pauses": self.gc_pauses,
                },
                handle,
            )


# ---------------------------------------------------------------------------
# Span arithmetic.
# ---------------------------------------------------------------------------


def covered(interval: Tuple[float, float], parts: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    total = 0.0
    cursor = lo
    for start, end in sorted(parts):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered((span.start, span.end), children.get(span.id, ()))
        for span in spans
    }


def descendants(spans: Sequence[Span], root: int) -> List[Span]:
    """``root`` and every span below it (spans are stored parents first)."""
    inside = {root}
    found = []
    for span in spans[root:]:
        if span.id == root or span.parent in inside:
            inside.add(span.id)
            found.append(span)
    return found


def layer_table(spans: Sequence[Span], roots: Sequence[int]) -> Dict[str, float]:
    """Self time per span name summed over the trees under ``roots``.

    The roots' own self time is the unattributed remainder, reported
    under ``"unattributed"``; the values sum to the roots' total wall.
    """
    own = self_times(spans)
    table: Dict[str, float] = {}
    for root in roots:
        for span in descendants(spans, root):
            name = "unattributed" if span.id == root else span.name
            table[name] = table.get(name, 0.0) + own[span.id]
    return table


# ---------------------------------------------------------------------------
# Probes: wrappers around each layer's public entry points.
# ---------------------------------------------------------------------------


class Probe:
    """One patched callable: ``owner.attr`` wrapped in a named span.

    ``after(span, args, result)`` records counters at the same boundary.
    """

    def __init__(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[[Span, tuple, object], None]] = None,
    ) -> None:
        self.owner = owner
        self.attr = attr
        self.name = name
        self.after = after
        self.original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def install(self, tracer: Tracer) -> None:
        original = self.original
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        name, after = self.name, self.after

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(span, args, result)
            return result

        wrapper.__wrapped__ = func
        setattr(self.owner, self.attr, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self) -> None:
        setattr(self.owner, self.attr, self.original)


@contextmanager
def probed(tracer: Tracer, probes: Sequence[Probe]) -> Iterator[None]:
    """Install ``probes`` for the duration of the block, then restore."""
    installed: List[Probe] = []
    try:
        for probe in probes:
            probe.install(tracer)
            installed.append(probe)
        yield
    finally:
        for probe in reversed(installed):
            probe.uninstall()

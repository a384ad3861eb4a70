"""Span arithmetic and probe installation."""

import gc

from perfbench.tracing import Probe, Span, Tracer, covered, layer_table, probed, self_times


def spans_of(*rows):
    return [Span(i, parent, name, start, end) for i, (parent, name, start, end) in enumerate(rows)]


def test_covered_merges_overlapping_children_and_clips_to_the_interval():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert covered((0.0, 10.0), []) == 0.0


def test_self_time_is_duration_minus_children():
    spans = spans_of(
        (None, "op", 0.0, 10.0),
        (0, "a", 1.0, 4.0),
        (1, "b", 2.0, 3.0),
        (0, "c", 5.0, 9.0),
    )
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_layer_table_accounts_for_the_whole_root_wall():
    spans = spans_of(
        (None, "op", 0.0, 10.0),
        (0, "a", 1.0, 4.0),
        (1, "a", 2.0, 3.0),
        (0, "c", 5.0, 9.0),
        (None, "op", 20.0, 22.0),
        (4, "c", 20.5, 21.0),
        (None, "setup", 30.0, 40.0),
    )
    table = layer_table(spans, [0, 4])
    assert table == {"unattributed": 4.5, "a": 3.0, "c": 4.5}
    assert sum(table.values()) == 12.0


def test_tracer_nests_spans_under_the_open_one():
    tracer = Tracer()
    with tracer.span("op") as root:
        with tracer.span("child") as child:
            pass
    assert child.parent == root.id
    assert root.start <= child.start <= child.end <= root.end


class Target:
    def work(self, value):
        return value * 2

    @classmethod
    def make(cls, value):
        return cls()


def test_probes_record_spans_and_counters_then_restore_the_originals():
    original_work, original_make = Target.__dict__["work"], Target.__dict__["make"]
    tracer = Tracer()
    def record(span, args, result):
        span.attrs.update(out=result)

    probes = [
        Probe(Target, "work", "layer.work", record),
        Probe(Target, "make", "layer.make"),
    ]
    with probed(tracer, probes):
        assert Target().work(21) == 42
        assert isinstance(Target.make(1), Target)
    assert [(s.name, s.attrs) for s in tracer.spans] == [
        ("layer.work", {"out": 42}),
        ("layer.make", {}),
    ]
    assert Target.__dict__["work"] is original_work
    assert Target.__dict__["make"] is original_make


def test_gc_watch_records_collections_only_while_installed():
    tracer = Tracer()
    with tracer.gc_watch():
        gc.collect()
    seen = len(tracer.gc_pauses)
    gc.collect()
    assert seen >= 1 and len(tracer.gc_pauses) == seen
    start, end, generation = tracer.gc_pauses[0]
    assert end >= start and generation == 2

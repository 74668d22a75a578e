import threading

import pytest

import probes
from probes import Probe, Tracer, fold_spans


class FakeClock:
    """Every reading advances by one tick, so durations are countable."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now


PROBES = [
    Probe("outer", "a", None, ""),
    Probe("inner", "b", None, ""),
    Probe("inner", "c", None, "", keep=True),
]


def span(idx, start, end, parent, op=None, units=0):
    return (idx, start, end, parent, op, units)


def test_self_time_of_nested_spans():
    # a [0,100] contains b [10,40] which contains c [20,30]
    summary = fold_spans(
        [span(0, 0, 100, -1), span(1, 10, 40, 0), span(2, 20, 30, 1)], PROBES
    )
    assert (summary["a"].total_ns, summary["a"].self_ns) == (100, 70)
    assert (summary["b"].total_ns, summary["b"].self_ns) == (30, 20)
    assert (summary["c"].total_ns, summary["c"].self_ns) == (10, 10)
    assert summary.attributed_ns() == 100       # self times tile the root


def test_self_time_of_sibling_spans():
    summary = fold_spans(
        [span(0, 0, 100, -1), span(1, 10, 30, 0), span(1, 50, 90, 0)], PROBES
    )
    assert summary["a"].self_ns == 100 - 20 - 40
    assert (summary["b"].count, summary["b"].self_ns) == (2, 60)


def test_self_time_of_reentrant_spans():
    # a calls itself: the inner a's time is not counted twice in a's self
    summary = fold_spans(
        [span(0, 0, 100, -1), span(0, 20, 60, 0), span(1, 30, 40, 1)], PROBES
    )
    assert summary["a"].count == 2
    assert summary["a"].total_ns == 140          # inclusive time does double
    assert summary["a"].self_ns == (100 - 40) + (40 - 10)
    assert summary["a"].self_ns + summary["b"].self_ns == 100


def test_open_slots_are_skipped_and_kept_durations_recorded():
    summary = fold_spans([None, span(2, 5, 9, 0), span(2, 10, 12, -1)], PROBES)
    assert summary["c"].durations_ns == [4, 2]
    assert "a" not in summary


def test_scope_counts_descendants_not_only_children():
    spans = [span(0, 0, 100, -1), span(1, 10, 90, 0), span(2, 20, 30, 1),
             span(2, 200, 210, -1)]
    summary = fold_spans(spans, PROBES, scopes=frozenset({"a"}))
    assert summary.under == {"a": {"b": 1, "c": 1}}


class Target:
    def plain(self, x):
        return x + 1

    def outer(self, x):
        return self.plain(x) * 2

    def gen(self, n):
        yield from range(n)

    @classmethod
    def made(cls, x):
        return cls, x

    def boom(self):
        raise KeyError("boom")


def _target_probes():
    return [
        Probe("t", "Target.plain", Target, "plain"),
        Probe("t", "Target.outer", Target, "outer"),
        Probe("t", "Target.gen", Target, "gen", adapt=probes.eager),
        Probe("t", "Target.made", Target, "made"),
        Probe("t", "Target.boom", Target, "boom"),
    ]


def test_install_then_uninstall_restores_identical_attributes():
    before = {name: vars(Target)[name] for name in ("plain", "outer", "gen", "made", "boom")}
    tracer = Tracer(clock=FakeClock())
    tracer.install(_target_probes())
    assert tracer.installed
    assert all(vars(Target)[name] is not raw for name, raw in before.items())
    with pytest.raises(RuntimeError):
        tracer.install(_target_probes())
    tracer.uninstall()
    assert not tracer.installed
    for name, raw in before.items():
        assert vars(Target)[name] is raw


def test_declared_surface_round_trips_on_the_real_stack():
    import stack

    declared = probes.declared(stack)
    before = [vars(p.owner)[p.attr] for p in declared]
    tracer = Tracer()
    tracer.install(declared)
    tracer.uninstall()
    after = [vars(p.owner)[p.attr] for p in declared]
    assert all(a is b for a, b in zip(before, after))
    layers = {p.layer for p in declared}
    assert {"storage.device", "core.blocks", "serve.wire", "ingest.wal"} <= layers


def test_wrappers_keep_behaviour_and_record_nesting():
    tracer = Tracer(clock=FakeClock())
    tracer.install(_target_probes())
    try:
        target = Target()
        with tracer.op(7, "query"):
            assert target.outer(1) == 4
        assert list(target.gen(3)) == [0, 1, 2]
        assert Target.made(5) == (Target, 5)
        with pytest.raises(KeyError):
            target.boom()
    finally:
        tracer.uninstall()
    summary = tracer.fold()
    assert summary["Target.outer"].count == 1
    assert summary["Target.plain"].count == 1
    # the fake clock ticks once per reading: plain is [3,4], outer [2,5]
    assert summary["Target.plain"].total_ns == 1
    assert summary["Target.outer"].self_ns == 3 - 1
    assert summary["op.query"].layer == probes.BENCH_LAYER
    assert summary["Target.boom"].count == 1      # a raising call still has a span
    assert tracer.fold() == {}                    # folding forgets


def test_spans_of_other_threads_are_folded_and_linked_to_their_op():
    tracer = Tracer(clock=FakeClock())
    # like RankingCubeExecutor.execute(self, query): the op's object is args[1]
    tracer.install([Probe("t", "Target.plain", Target, "plain", by_op=True)])
    try:
        payload = 41
        tracer.links[id(payload)] = "op-9"
        thread = threading.Thread(target=Target().plain, args=(payload,))
        thread.start()
        thread.join()
        summary = tracer.fold()
    finally:
        tracer.uninstall()
    assert summary["Target.plain"].count == 1
    assert list(summary["Target.plain"].start_by_op) == ["op-9"]
    assert tracer.links == {}

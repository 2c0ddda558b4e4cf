"""The traced run's wrappers exist only while it runs."""

import threading

import pytest

from wnbench.tracer import OpTrace, Recorder, boundaries, originals, traced


def test_traced_restores_every_original():
    before = originals()
    recorder = Recorder()
    with traced(recorder):
        during = originals()
        assert all(during[name] is not before[name] for name in before)
    assert originals() == before


def test_traced_restores_after_an_error():
    before = originals()
    with pytest.raises(RuntimeError):
        with traced(Recorder()):
            raise RuntimeError("boom")
    assert originals() == before


def test_no_boundary_is_left_wrapped():
    for owner, name, _ in boundaries(Recorder()):
        assert not hasattr(getattr(owner, name), "__wrapped__"), name


def test_self_time_excludes_children_and_counts_outer_calls():
    recorder = Recorder()
    inner = recorder.wrap("inner", lambda: sum(range(20000)))

    def outer_body(depth):
        inner()
        if depth:
            outer(depth - 1)

    outer = recorder.wrap("outer", outer_body)
    trace = OpTrace()
    with recorder.bound(trace):
        outer(1)
    calls, all_calls, total, self_s = trace.layer("outer")
    assert (calls, all_calls) == (1, 2)
    assert 0.0 < self_s < total
    assert trace.layer("inner")[:2] == [2, 2]
    assert self_s + trace.layer("inner")[3] == pytest.approx(total)


def test_engine_span_binds_the_op_of_its_argument_on_another_thread():
    recorder = Recorder()
    key = object()
    trace = OpTrace()
    recorder.bind_object(key, trace)
    engine_call = recorder.wrap("core.engine", lambda self, arg: None, engine=True)
    worker = threading.Thread(target=engine_call, args=(None, key))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert trace.layer("core.engine")[0] == 1
    assert trace.engine_start is not None and trace.engine_s > 0.0

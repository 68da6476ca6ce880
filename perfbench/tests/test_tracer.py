"""Span bookkeeping of tracer.Tracer, on a fake clock."""

import sys
import threading
import types

import pytest

import tracer as tracer_mod
from tracer import Tracer


@pytest.fixture
def clock(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: now[0])

    def advance(dt):
        now[0] += dt
    return advance


def _by_name(t):
    return {name: (sid, self_s, parent, thread)
            for sid, name, _, _, self_s, parent, thread, _ in t.spans()}


def test_nested_spans_subtract_children(clock):
    t = Tracer()
    inner = t.wrapper("inner", lambda: clock(2.0))

    def outer_body():
        clock(1.0)
        inner()
        inner()
        clock(3.0)
    outer = t.wrapper("outer", outer_body)
    outer()

    agg = t.by_name()
    assert agg["outer"] == {"calls": 1, "self_s": 4.0}
    assert agg["inner"] == {"calls": 2, "self_s": 4.0}
    spans = list(t.spans())
    assert [end - start for _, name, start, end, *_ in spans if name == "outer"] == [8.0]
    outer_id = next(s[0] for s in spans if s[1] == "outer")
    assert all(s[5] == outer_id for s in spans if s[1] == "inner")


def test_spans_on_another_thread_keep_their_own_self_time(clock):
    t = Tracer()
    work = t.wrapper("work", lambda: clock(5.0))

    def driver_body():
        clock(1.0)
        th = threading.Thread(target=work)
        th.start()
        th.join(timeout=10)
        assert not th.is_alive()
        clock(1.0)
    driver = t.wrapper("driver", driver_body)
    driver()

    spans = _by_name(t)
    driver_id, driver_self, _, driver_thread = spans["driver"]
    _, work_self, work_parent, work_thread = spans["work"]
    # the worker's span is caused by the driver but runs on its own thread,
    # so it is not subtracted from the driver's self time
    assert work_parent == driver_id
    assert work_thread != driver_thread
    assert driver_self == 7.0
    assert work_self == 5.0
    assert t.child_time({"driver"}) == (5.0, 7.0)


def test_hook_sees_arguments_and_result(clock):
    seen = []
    t = Tracer()
    f = t.wrapper("f", lambda a, b=1: a + b, hook=lambda args, kwargs, r: seen.append((args, kwargs, r)))
    assert f(2, b=3) == 5
    assert seen == [((2,), {"b": 3}, 5)]


def test_wrap_rebinds_every_namespace_and_unwrap_restores(monkeypatch):
    def f():
        return 1
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    other = types.ModuleType("otherpkg")
    a.f = b.f = other.f = f  # b did `from .a import f`
    for mod in (a, b, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    t = Tracer()
    assert t.wrap(a, "f", "fakepkg.a.f", package="fakepkg") == 2
    assert a.f is b.f and a.f is not f
    assert other.f is f  # outside the package
    b.f()
    assert t.by_name()["fakepkg.a.f"]["calls"] == 1
    t.unwrap()
    assert a.f is f and b.f is f

"""Span bookkeeping of the benchmark's tracer, on synthetic calls."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import Patch, Target, Tracer  # noqa: E402


def fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_time_subtracts_child_spans():
    tracer = Tracer(clock=fake_clock())
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda: leaf())
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    # Ticks: outer 0..9, inner 1..4 and 5..8, leaf 2..3 and 6..7.
    assert tracer.self_times() == {"outer": 3.0, "inner": 4.0, "leaf": 2.0}
    assert sum(tracer.self_times().values()) == tracer.covered_time() == 9.0
    assert tracer.child_count("outer", "inner") == 2
    assert tracer.child_count("outer", "leaf") == 0
    assert tracer.counters["inner.calls"] == 2


def test_sibling_roots_add_to_coverage_and_counters_see_results():
    tracer = Tracer(clock=fake_clock())
    f = tracer.wrap("f", lambda n: [0] * n, lambda tr, args, kwargs, out: tr.add("f.items", len(out)))
    f(3)
    f(n=4)
    assert tracer.covered_time() == 2.0
    assert tracer.counters["f.items"] == 7
    assert tracer.parents == [-1, -1]


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=fake_clock())

    def boom():
        raise KeyError("x")

    outer = tracer.wrap("outer", lambda: tracer.wrap("boom", boom)())
    with pytest.raises(KeyError):
        outer()
    assert tracer.self_times() == {"outer": 2.0, "boom": 1.0}
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.parents[-1] == -1


def test_patch_reaches_names_imported_elsewhere_and_restores_them():
    lib = types.ModuleType("fake_lib")
    exec(
        "def f(x):\n    return x + 1\n"
        "class C:\n    def m(self):\n        return f(1)\n",
        lib.__dict__,
    )
    user = types.ModuleType("fake_user")
    user.f = lib.f  # as after ``from fake_lib import f``
    sys.modules["fake_lib"] = lib
    try:
        original_f, original_m = lib.f, lib.C.m
        tracer = Tracer(clock=fake_clock())
        targets = [Target("lib.f", "fake_lib", "f"), Target("lib.C.m", "fake_lib", "C.m")]
        with Patch(tracer, targets, [user]):
            assert user.f(1) == 2
            assert lib.C().m() == 2
        assert tracer.names == ["lib.f", "lib.C.m", "lib.f"]
        assert tracer.parents == [-1, -1, 1]
        assert user.f is original_f and lib.f is original_f
        assert lib.C.m is original_m
    finally:
        del sys.modules["fake_lib"]
